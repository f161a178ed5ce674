package simtime

import (
	"container/heap"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refEngine is the engine this package had before the streamed event core,
// kept as the reference model: container/heap, every event queued (the
// ordered source is a plain Schedule loop), cancellation by flag with the
// event left in the heap until its time comes. The differential test below
// drives it and Engine with the same script and demands identical firing
// sequences.
type refEngine struct {
	now   Time
	seq   uint64
	q     refHeap
	fired uint64
	// sourceLast plants the bug the oracle must catch: among events at the
	// same time, arrivals of the ordered source fire after everything else.
	sourceLast bool
}

type refEvent struct {
	at       Time
	seq      uint64
	src      bool
	canceled bool
	fire     func()
	eng      *refEngine
}

type refHeap []*refEvent

func (h refHeap) Len() int      { return len(h) }
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h refHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.eng.sourceLast && a.src != b.src {
		return b.src
	}
	return a.seq < b.seq
}
func (h *refHeap) Push(x any) { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	ev := old[len(old)-1]
	*h = old[:len(old)-1]
	return ev
}

func (r *refEngine) schedule(at Time, src bool, fire func()) *refEvent {
	if at < r.now {
		panic("ref: event scheduled in the past")
	}
	ev := &refEvent{at: at, seq: r.seq, src: src, fire: fire, eng: r}
	r.seq++
	heap.Push(&r.q, ev)
	return ev
}

func (r *refEngine) step() bool {
	for len(r.q) > 0 {
		ev := heap.Pop(&r.q).(*refEvent)
		if ev.canceled {
			continue
		}
		r.now = ev.at
		r.fired++
		ev.fire()
		return true
	}
	return false
}

func (r *refEngine) runUntil(deadline Time) {
	for len(r.q) > 0 {
		if head := r.q[0]; head.canceled {
			heap.Pop(&r.q)
			continue
		} else if head.at > deadline {
			break
		}
		r.step()
	}
	if r.now < deadline {
		r.now = deadline
	}
}

// sched is what the script needs of an engine; handles are named by the
// order of their creation so both sides can refer to the same one.
type sched interface {
	handle(at Time, fire func())       // cancellable event
	rearm(h int, at Time, fire func()) // cancel handle h, schedule it anew
	cancel(h int)
	post(at Time, fire func())
	source(times []Time, fire func(i int))
	runUntil(deadline Time)
	runLimit(n uint64)
	run()
	clock() (now Time, fired uint64)
}

type refSched struct {
	e       refEngine
	handles []*refEvent
}

func (s *refSched) handle(at Time, fire func()) {
	s.handles = append(s.handles, s.e.schedule(at, false, fire))
}
func (s *refSched) rearm(h int, at Time, fire func()) {
	s.handles[h].canceled = true
	s.handles[h] = s.e.schedule(at, false, fire)
}
func (s *refSched) cancel(h int)              { s.handles[h].canceled = true }
func (s *refSched) post(at Time, fire func()) { s.e.schedule(at, false, fire) }
func (s *refSched) source(times []Time, fire func(i int)) {
	for i, at := range times {
		s.e.schedule(at, true, func() { fire(i) })
	}
}
func (s *refSched) runUntil(deadline Time) { s.e.runUntil(deadline) }
func (s *refSched) runLimit(n uint64) {
	for ; n > 0 && s.e.step(); n-- {
	}
}
func (s *refSched) run() {
	for s.e.step() {
	}
}
func (s *refSched) clock() (Time, uint64) { return s.e.now, s.e.fired }

// realSched drives Engine, spreading the script's cancellable events over
// both handle forms: Schedule's own handle, and a caller-owned Arm event.
type realSched struct {
	e       Engine
	handles []*Event
}

func callThunk(_ Time, fire any) { fire.(func())() }

func (s *realSched) handle(at Time, fire func()) {
	if len(s.handles)%2 == 0 {
		s.handles = append(s.handles, s.e.Schedule(at, func(Time) { fire() }))
		return
	}
	ev := &Event{}
	s.e.Arm(ev, at, callThunk, fire)
	s.handles = append(s.handles, ev)
}
func (s *realSched) rearm(h int, at Time, fire func()) { s.e.Arm(s.handles[h], at, callThunk, fire) }
func (s *realSched) cancel(h int)                      { s.e.Cancel(s.handles[h]) }
func (s *realSched) post(at Time, fire func())         { s.e.Post(at, callThunk, fire) }
func (s *realSched) source(times []Time, fire func(i int)) {
	s.e.ScheduleAll(times, func(_ Time, i int) { fire(i) })
}
func (s *realSched) runUntil(deadline Time) { s.e.RunUntil(deadline) }
func (s *realSched) runLimit(n uint64)      { s.e.RunLimit(n) }
func (s *realSched) run()                   { s.e.Run() }
func (s *realSched) clock() (Time, uint64)  { return s.e.Now(), s.e.Fired() }

// world is one engine living through the script. Everything an event does
// when it fires is a function of (seed, id) alone, so two worlds stay in
// lockstep exactly as long as their engines fire the same ids in the same
// order — and the logs show the first place they do not.
type world struct {
	s       sched
	seed    int64
	log     []string
	nextID  int
	handles int
}

func (w *world) logf(format string, a ...any) { w.log = append(w.log, fmt.Sprintf(format, a...)) }

// spawn creates one new event of a random kind at a small integer delay:
// integer times make exact ties the common case.
func (w *world) spawn(r *rand.Rand) {
	id := w.nextID
	w.nextID++
	now, _ := w.s.clock()
	at := now + Time(r.Intn(4))
	fire := func() { w.fire(id) }
	switch k := r.Intn(4); {
	case k == 0:
		w.s.post(at, fire)
	case k == 1 && w.handles > 0:
		w.s.rearm(r.Intn(w.handles), at, fire)
	default:
		w.s.handle(at, fire)
		w.handles++
	}
}

func (w *world) fire(id int) {
	now, fired := w.s.clock()
	w.logf("fire %d at %v (#%d)", id, now, fired)
	r := rand.New(rand.NewSource(w.seed<<20 + int64(id)))
	switch k := r.Intn(8); {
	case k < 3:
		w.spawn(r)
	case k == 3 && w.handles > 0:
		w.s.cancel(r.Intn(w.handles))
	case k == 4:
		w.spawn(r)
		w.spawn(r)
	}
}

// script is the seeded top-level scenario: initial events, an ordered
// source registered in the middle of them (sorted in two seeds of three),
// a RunUntil whose deadline is exactly a source element's time, a bounded
// run, then a run to completion — and the whole thing once more, so a
// second source is registered after the first has drained.
func (w *world) script() {
	r := rand.New(rand.NewSource(w.seed))
	for round := 0; round < 2; round++ {
		for n := 3 + r.Intn(8); n > 0; n-- {
			w.spawn(r)
		}
		now, _ := w.s.clock()
		times := make([]Time, 2+r.Intn(12))
		for i := range times {
			times[i] = now + Time(r.Intn(12))
		}
		if w.seed%3 != 0 {
			slices.Sort(times)
		}
		base := 1_000_000 * (round + 1)
		w.s.source(times, func(i int) { w.fire(base + i) })
		if w.seed%5 == 0 { // a second source while the first is live
			w.s.source(times[:2], func(i int) { w.fire(base + 1000 + i) })
		}
		for n := r.Intn(5); n > 0; n-- {
			w.spawn(r)
		}

		w.s.runUntil(times[r.Intn(len(times))])
		now, fired := w.s.clock()
		w.logf("after RunUntil: now %v fired %d", now, fired)
		w.spawn(r)

		limit := uint64(r.Intn(6))
		w.s.runLimit(limit)
		now, fired = w.s.clock()
		w.logf("after RunLimit(%d): now %v fired %d", limit, now, fired)

		// Terminates: an event spawns 5/8 of an event on average.
		w.s.run()
		now, fired = w.s.clock()
		w.logf("after Run: now %v fired %d", now, fired)
	}
}

// diverge runs the script on Engine and on the reference and returns the
// first log line where they differ ("" when they agree throughout).
func diverge(seed int64, sourceLast bool) string {
	ref := &world{s: &refSched{e: refEngine{sourceLast: sourceLast}}, seed: seed}
	real := &world{s: &realSched{}, seed: seed}
	ref.script()
	real.script()
	for i := 0; i < len(ref.log) || i < len(real.log); i++ {
		var a, b string
		if i < len(ref.log) {
			a = ref.log[i]
		}
		if i < len(real.log) {
			b = real.log[i]
		}
		if a != b {
			return fmt.Sprintf("step %d: reference %q, engine %q", i, a, b)
		}
	}
	return ""
}

func TestDifferentialAgainstReferenceEngine(t *testing.T) {
	for seed := int64(1); seed <= 500; seed++ {
		if d := diverge(seed, false); d != "" {
			t.Fatalf("seed %d: engine and reference disagree at %s", seed, d)
		}
	}
}

// The planted bug: a reference that breaks ties source-last must be told
// apart from the engine, or the oracle above is not looking at ties.
func TestDifferentialCatchesSourceLastTieBreak(t *testing.T) {
	caught := 0
	for seed := int64(1); seed <= 200; seed++ {
		if diverge(seed, true) != "" {
			caught++
		}
	}
	if caught < 100 {
		t.Fatalf("source-last tie-break caught on %d of 200 seeds, want most of them", caught)
	}
	t.Logf("source-last tie-break caught on %d of 200 seeds", caught)
}

func TestRunLimitMatchesSteps(t *testing.T) {
	var e Engine
	e.ScheduleAll([]Time{1, 2, 3}, func(Time, int) {})
	e.Schedule(2, func(Time) {})
	if n := e.RunLimit(3); n != 3 || e.Now() != 2 || e.Pending() != 1 {
		t.Fatalf("RunLimit(3) = %d, now %v, pending %d; want 3, 2, 1", n, e.Now(), e.Pending())
	}
}

func TestScheduleAllFiresLikeAScheduleLoop(t *testing.T) {
	var e Engine
	var got []string
	e.Schedule(2, func(Time) { got = append(got, "before") })
	e.ScheduleAll([]Time{1, 2, 2, 5}, func(now Time, i int) {
		got = append(got, fmt.Sprintf("src%d@%v", i, now))
		if i == 0 {
			e.After(1, func(Time) { got = append(got, "child") })
		}
	})
	e.Schedule(2, func(Time) { got = append(got, "after") })
	e.Run()
	want := "[src0@1 before src1@2 src2@2 after child src3@5]"
	if fmt.Sprint(got) != want {
		t.Fatalf("order = %v, want %s", got, want)
	}
	if e.Fired() != 7 || e.Now() != 5 {
		t.Fatalf("fired %d, now %v; want 7, 5", e.Fired(), e.Now())
	}
}

func TestOrderedSourceStaysOutOfTheQueue(t *testing.T) {
	var e Engine
	times := make([]Time, 1000)
	for i := range times {
		times[i] = Time(i)
	}
	e.ScheduleAll(times, func(Time, int) { e.After(0.5, func(Time) {}) })
	if e.Pending() != 1000 || e.MaxQueueLen() != 0 {
		t.Fatalf("pending %d, high-water %d; want 1000, 0", e.Pending(), e.MaxQueueLen())
	}
	e.RunUntil(499)
	if e.Pending() != 501 { // 500 arrivals and the last child
		t.Fatalf("pending %d after RunUntil(499), want 501", e.Pending())
	}
	e.Run()
	if e.MaxQueueLen() != 1 || e.Fired() != 2000 || e.Pending() != 0 {
		t.Fatalf("high-water %d, fired %d, pending %d; want 1, 2000, 0", e.MaxQueueLen(), e.Fired(), e.Pending())
	}
}

func TestScheduleAllRejectsThePastAndNil(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	var e Engine
	e.RunUntil(5)
	mustPanic("source in the past", func() { e.ScheduleAll([]Time{6, 4}, func(Time, int) {}) })
	mustPanic("nil callback", func() { e.ScheduleAll(nil, nil) })
	if e.Pending() != 0 {
		t.Fatalf("a rejected source left %d events pending", e.Pending())
	}
}

// Only one source streams at a time; one registered while it is live is
// queued instead, and fires in the same order all the same.
func TestSecondLiveSourceIsQueued(t *testing.T) {
	var e Engine
	var got []string
	e.ScheduleAll([]Time{1, 3}, func(_ Time, i int) { got = append(got, fmt.Sprint("a", i)) })
	e.ScheduleAll([]Time{1, 2, 3}, func(_ Time, i int) { got = append(got, fmt.Sprint("b", i)) })
	if e.Pending() != 5 || e.MaxQueueLen() != 3 {
		t.Fatalf("pending %d, queued %d; want 5, 3", e.Pending(), e.MaxQueueLen())
	}
	e.Run()
	if want := "[a0 b0 b1 a1 b2]"; fmt.Sprint(got) != want {
		t.Fatalf("order = %v, want %s", got, want)
	}
}

// A handle outlives its event. Whatever the engine recycles afterwards, the
// stale handle must not be able to cancel it.
func TestStaleHandleCannotCancelARecycledEvent(t *testing.T) {
	var e Engine
	fired := 0
	count := func(Time, any) { fired++ }

	var timer Event
	e.Arm(&timer, 1, count, nil)
	stale := e.After(1, func(Time) { fired++ })
	e.Post(1, count, nil)
	e.Run() // all three fire; the posted event's struct goes to the free list
	if fired != 3 {
		t.Fatalf("fired %d, want 3", fired)
	}

	// New occupants: the recycled posted struct, and the re-armed timer.
	e.Post(2, count, nil)
	e.Post(2, count, nil)
	e.Arm(&timer, 2, count, nil)
	e.Cancel(stale) // fired long ago: must reach nothing
	e.Run()
	if fired != 6 {
		t.Fatalf("fired %d after the stale cancel, want 6: it reached a live event", fired)
	}

	// The owner's own handle does cancel the re-armed timer, once.
	e.Arm(&timer, 3, count, nil)
	e.Cancel(&timer)
	e.Cancel(&timer)
	var other Engine
	other.Cancel(&timer) // not this engine's event
	e.Run()
	if fired != 6 || e.Pending() != 0 {
		t.Fatalf("fired %d, pending %d; want 6, 0", fired, e.Pending())
	}
}

func TestArmReplacesThePendingFiring(t *testing.T) {
	var e Engine
	var got []Time
	var timer Event
	note := func(now Time, _ any) { got = append(got, now) }
	e.Arm(&timer, 5, note, nil)
	e.Arm(&timer, 3, note, nil) // replaces the firing at 5
	if timer.At() != 3 || timer.Canceled() {
		t.Fatalf("re-armed timer: At %v, Canceled %v; want 3, false", timer.At(), timer.Canceled())
	}
	e.Run()
	if len(got) != 1 || got[0] != 3 || e.Fired() != 1 {
		t.Fatalf("fired at %v (%d events), want once at 3", got, e.Fired())
	}
}

// The engine keeps the caller's slice; a caller that rewrites it under a
// live source is caught, not allowed to run the clock backwards.
func TestModifiedSourceTimesPanic(t *testing.T) {
	var e Engine
	times := []Time{1, 5, 9}
	e.ScheduleAll(times, func(Time, int) {})
	e.RunUntil(6)
	times[2] = 2
	defer func() {
		if recover() == nil {
			t.Fatal("a source time behind the clock did not panic")
		}
	}()
	e.Run()
}

// Steady state allocates nothing: posted events come from the free list,
// armed events are the caller's, the ordered source is a slice walk. Only
// Schedule/After pay — one Event, the price of a handle that stays safe
// for as long as the caller cares to keep it.
func TestSteadyStateAllocations(t *testing.T) {
	var e Engine
	nop := func(Time, any) {}
	cycle := func() {
		for i := 0; i < 8; i++ {
			e.Post(e.Now()+Time(i%3), nop, &e)
		}
		e.Run()
	}
	cycle() // warm the free list and the queue's backing array
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("Post+fire allocates %v per 8 events, want 0", n)
	}

	var timer Event
	rearm := func() {
		e.Arm(&timer, e.Now()+2, nop, &e)
		e.Arm(&timer, e.Now()+1, nop, &e)
		e.Run()
	}
	if n := testing.AllocsPerRun(100, rearm); n != 0 {
		t.Errorf("Arm+fire allocates %v, want 0", n)
	}

	times := make([]Time, 64)
	source := func() {
		for i := range times {
			times[i] = e.Now() + Time(i)
		}
		e.ScheduleAll(times, func(Time, int) {})
		e.Run()
	}
	if n := testing.AllocsPerRun(100, source); n != 0 {
		t.Errorf("ordered source allocates %v per 64 arrivals, want 0", n)
	}

	tick := func(Time) {}
	if n := testing.AllocsPerRun(100, func() { e.After(1, tick); e.Run() }); n > 1 {
		t.Errorf("After+fire allocates %v, want at most its handle", n)
	}
}

func BenchmarkPostAndRun(b *testing.B) {
	b.ReportAllocs()
	var e Engine
	nop := func(Time, any) {}
	for i := 0; i < b.N; i++ {
		for j := 0; j < 1000; j++ {
			e.Post(e.Now()+Time(j%97), nop, nil)
		}
		e.Run()
	}
}

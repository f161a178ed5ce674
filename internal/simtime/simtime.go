// Package simtime implements the virtual clock and discrete-event scheduler
// that drive the EEVFS cluster simulator.
//
// Time is a float64 number of seconds since simulation start. Events are
// ordered by (time, sequence number): ties break in scheduling order, which
// makes every run fully deterministic. Three kinds of event share that one
// order (DESIGN.md §7): handle events (Schedule, After, Arm), owned and
// cancellable by the caller; posted events (Post), owned and recycled by
// the engine; and the ordered source's arrivals (ScheduleAll), never queued.
package simtime

// Time is a point in virtual time, in seconds since simulation start.
type Time float64

// Duration is a span of virtual time in seconds.
type Duration = float64

// Event is one scheduled callback, and the handle that cancels it. The
// struct belongs to whoever holds the pointer and is never reused for
// another's event. The zero value is an unarmed event ready for Arm.
type Event struct {
	at       Time
	seq      uint64
	pos      int // heap position plus one; 0 while not queued
	canceled bool
	fire     func(now Time, arg any)
	arg      any
	pooled   bool // engine-owned (Post): recycled on firing, never exposed
}

// At returns the virtual time the event is (or was last) scheduled for.
func (e *Event) At() Time { return e.at }

// Canceled reports whether Cancel was called on the event since it was
// last scheduled.
func (e *Event) Canceled() bool { return e.canceled }

// Engine is a discrete-event scheduler. The zero value is ready to use.
type Engine struct {
	now    Time
	seq    uint64
	queue  []*Event // min-heap by (at, seq)
	free   []*Event // fired posted events awaiting reuse
	fired  uint64
	maxLen int

	// The ordered source: element i fires at src[i] under sequence number
	// srcSeq+i, merged into the firing order, not queued; srcNext is next.
	src     []Time
	srcNext int
	srcSeq  uint64
	srcFire func(now Time, i int)
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// MaxQueueLen returns the high-water mark of the event queue. The ordered
// source's unfired arrivals are not queued and do not count, and a
// cancelled event leaves at once: the mark is work in flight.
func (e *Engine) MaxQueueLen() int { return e.maxLen }

// Pending returns the number of events still to fire: the queue plus the
// ordered source's unfired arrivals. Cancelled events are not counted.
func (e *Engine) Pending() int { return len(e.queue) + len(e.src) - e.srcNext }

// Schedule registers fire to run at absolute virtual time at and returns
// the handle that cancels it. Scheduling in the past (at < Now) panics: it
// always indicates a modeling bug, and silently clamping would hide it.
func (e *Engine) Schedule(at Time, fire func(now Time)) *Event {
	if fire == nil {
		panic("simtime: nil event callback")
	}
	ev := &Event{}
	e.schedule(ev, at, func(now Time, fire any) { fire.(func(Time))(now) }, fire)
	return ev
}

// After schedules fire to run d seconds from now. Negative d panics.
func (e *Engine) After(d Duration, fire func(now Time)) *Event {
	if d < 0 {
		panic("simtime: negative delay")
	}
	return e.Schedule(e.now+Time(d), fire)
}

// Arm schedules the caller's own event to run fire(now, arg) at time at,
// first cancelling the firing it still had pending: a re-armable timer
// that allocates nothing. arg carries what the event acts on, so fire can
// be one function per kind of event instead of a closure each.
func (e *Engine) Arm(ev *Event, at Time, fire func(now Time, arg any), arg any) {
	e.Cancel(ev)
	e.schedule(ev, at, fire, arg)
}

// Post schedules fire(now, arg) at time at with no handle: the event cannot
// be cancelled, so the engine owns its struct and recycles it on firing.
func (e *Engine) Post(at Time, fire func(now Time, arg any), arg any) {
	var ev *Event
	if n := len(e.free); n > 0 {
		ev, e.free = e.free[n-1], e.free[:n-1]
	} else {
		ev = &Event{pooled: true}
	}
	e.schedule(ev, at, fire, arg)
}

// ScheduleAll makes fire(now, i) run at times[i] for every i, in exactly
// the order — ties included — in which a loop of Schedule(times[i], ...)
// would have fired them. Nondecreasing times become the ordered source:
// the engine reserves the sequence numbers the loop would have drawn and
// merges the source's head against the queue's head by (time, seq), so
// nothing is queued or allocated per element; times must stay unmodified
// until the last has fired. Unsorted times, or any registered while a
// source is still live, are posted one by one instead.
func (e *Engine) ScheduleAll(times []Time, fire func(now Time, i int)) {
	if fire == nil {
		panic("simtime: nil event callback")
	}
	stream := e.srcNext == len(e.src)
	for i, at := range times {
		if at < e.now {
			panic("simtime: event scheduled in the past")
		}
		stream = stream && (i == 0 || times[i-1] <= at)
	}
	if stream {
		e.src, e.srcNext, e.srcSeq, e.srcFire = times, 0, e.seq, fire
		e.seq += uint64(len(times))
		return
	}
	for i, at := range times {
		e.Post(at, func(now Time, _ any) { fire(now, i) }, nil)
	}
}

// Cancel takes the event out of the queue so it will not fire. Cancelling
// nil is a no-op, and cancelling an unarmed event, or one that already
// fired or was cancelled, only marks it Canceled: pos is set only while the
// queue holds this very struct, and a handle's struct is never recycled,
// so a stale handle reaches nothing.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil {
		return
	}
	ev.canceled = true
	if ev.pos == 0 || ev.pos > len(e.queue) || e.queue[ev.pos-1] != ev {
		return
	}
	e.remove(ev.pos - 1)
	ev.fire, ev.arg = nil, nil
}

// sourceFirst reports whether the ordered source's head fires next: it
// precedes the queue's head by the (time, seq) key.
func (e *Engine) sourceFirst() bool {
	if e.srcNext == len(e.src) || len(e.queue) == 0 {
		return e.srcNext < len(e.src)
	}
	at, head := e.src[e.srcNext], e.queue[0]
	return at < head.at || (at == head.at && e.srcSeq+uint64(e.srcNext) < head.seq)
}

// Step fires the next event, from the ordered source or from the queue.
// It returns false when both are exhausted.
func (e *Engine) Step() bool {
	if e.sourceFirst() {
		i, fire := e.srcNext, e.srcFire
		if e.src[i] < e.now {
			panic("simtime: time went backwards") // the caller modified times
		}
		e.now = e.src[i]
		e.fired++
		if e.srcNext++; e.srcNext == len(e.src) {
			e.src, e.srcNext, e.srcFire = nil, 0, nil // drained: release the slice
		}
		fire(e.now, i)
		return true
	}
	if len(e.queue) == 0 {
		return false
	}
	ev := e.remove(0)
	fire, arg := ev.fire, ev.arg
	ev.fire, ev.arg = nil, nil
	if ev.pooled {
		e.free = append(e.free, ev)
	}
	e.now = ev.at
	e.fired++
	fire(e.now, arg)
	return true
}

// Run fires events until none remain. It returns the final virtual time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// RunUntil fires events with time <= deadline, then advances the clock to
// the deadline (if it is later than the last event). Events scheduled
// beyond the deadline remain pending.
func (e *Engine) RunUntil(deadline Time) Time {
	for {
		if e.sourceFirst() {
			if e.src[e.srcNext] > deadline {
				break
			}
		} else if len(e.queue) == 0 || e.queue[0].at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// RunLimit fires at most n events; it returns the number actually fired.
// Useful as a runaway guard in tests.
func (e *Engine) RunLimit(n uint64) uint64 {
	var fired uint64
	for fired < n && e.Step() {
		fired++
	}
	return fired
}

// schedule stamps ev with the next sequence number and queues it.
func (e *Engine) schedule(ev *Event, at Time, fire func(Time, any), arg any) {
	if at < e.now {
		panic("simtime: event scheduled in the past")
	}
	if fire == nil {
		panic("simtime: nil event callback")
	}
	ev.at, ev.seq, ev.fire, ev.arg, ev.canceled = at, e.seq, fire, arg, false
	e.seq++
	e.queue = append(e.queue, ev)
	e.place(len(e.queue)-1, ev)
	e.maxLen = max(e.maxLen, len(e.queue))
}

// The queue is a binary min-heap ordered by (at, seq), written on the
// concrete type: no interface dispatch, and a sift moves the hole instead
// of swapping. Every placement records the event's position for Cancel.

func less(a, b *Event) bool { return a.at < b.at || (a.at == b.at && a.seq < b.seq) }

// place puts ev into the hole at heap position i and sifts it into order.
func (e *Engine) place(i int, ev *Event) {
	q := e.queue
	for p := (i - 1) / 2; i > 0 && less(ev, q[p]); p = (i - 1) / 2 {
		q[i] = q[p]
		q[i].pos = i + 1
		i = p
	}
	for c := 2*i + 1; c < len(q); c = 2*i + 1 {
		if c+1 < len(q) && less(q[c+1], q[c]) {
			c++
		}
		if !less(q[c], ev) {
			break
		}
		q[i] = q[c]
		q[i].pos = i + 1
		i = c
	}
	q[i], ev.pos = ev, i+1
}

// remove takes out the event at heap position i; the last fills the hole.
func (e *Engine) remove(i int) *Event {
	ev, n := e.queue[i], len(e.queue)-1
	last := e.queue[n]
	e.queue[n] = nil
	e.queue = e.queue[:n]
	if i < n {
		e.place(i, last)
	}
	ev.pos = 0
	return ev
}

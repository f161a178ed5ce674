package cluster

import (
	"runtime"
	"testing"

	"eevfs/internal/metrics"
	"eevfs/internal/telemetry"
	"eevfs/internal/trace"
	"eevfs/internal/workload"
)

// fiveThousand is the benchmark's trace: the default synthetic workload at
// 5 000 requests.
func fiveThousand(t testing.TB) *trace.Trace {
	t.Helper()
	cfg := workload.DefaultSynthetic()
	cfg.NumRequests = 5000
	tr, err := workload.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// hotArms are the three arms the budgets below are held to, in a fixed
// order so their log lines read the same every run.
func hotArms() []struct {
	name string
	cfg  Config
} {
	return []struct {
		name string
		cfg  Config
	}{{"pf", DefaultTestbed()}, {"npf", DefaultTestbed().NPF()}, {"adaptive", DefaultTestbed().AdaptiveArm()}}
}

// The allocation guard (the yardstick's cluster.allocs_per_req, in tier-1):
// before the streamed event core a request cost 10.9 allocations — a heap
// event and a closure per arrival, service end and response, a request per
// hop. What is left is per-run set-up, about 0.2 per request at this trace
// length; one stray allocation on the per-request path takes it past 1.
func TestRunAllocationsPerRequest(t *testing.T) {
	tr := fiveThousand(t)
	for _, arm := range hotArms() {
		perRun := testing.AllocsPerRun(3, func() {
			if _, err := Run(arm.cfg, tr); err != nil {
				t.Fatal(err)
			}
		})
		perReq := perRun / float64(len(tr.Records))
		t.Logf("%s: %.0f allocations per run, %.2f per request", arm.name, perRun, perReq)
		if perReq > 1 {
			t.Errorf("%s: %.2f allocations per request, budget 1", arm.name, perReq)
		}
	}
}

// The byte guard: bytes allocated set the garbage collector's pace, and a
// buffer that grows by doubling costs about twice its final size. Before
// the response samplers, the trace's records and the hint plan's lists
// were sized once per run, a request cost pf 125, npf 72 and adaptive
// 101 bytes; sized, 61, 29 and 56. The npf and adaptive budgets are the
// sized figure plus 15 bytes: the 9 that -race adds, and room besides. A
// response sampler left to grow again costs about 18. The pf arm cost 45
// bytes while PRE-BUD's gate built busy lists and windows, 32 since it
// became one pass over the hint list; its budget is 32 plus a quarter,
// and the race detector's 9 on top under -race.
func TestRunBytesPerRequest(t *testing.T) {
	tr := fiveThousand(t)
	budget := map[string]float64{"pf": 40, "npf": 44, "adaptive": 71}
	if raceEnabled {
		budget["pf"] += 9
	}
	for _, arm := range hotArms() {
		run := func() {
			if _, err := Run(arm.cfg, tr); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm: first-use growth elsewhere in the program is not the run's
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		perReq := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(tr.Records))
		t.Logf("%s: %.0f bytes allocated per request", arm.name, perReq)
		if perReq > budget[arm.name] {
			t.Errorf("%s: %.0f bytes allocated per request, budget %.0f", arm.name, perReq, budget[arm.name])
		}
	}
}

// The queue high-water invariant: arrivals stream in from the ordered
// source, so the engine's queue holds only work in flight — at most a few
// events per disk — however long the trace is. Pre-scheduling every
// arrival put it above the trace length (5 000+ here).
func TestEngineQueueHoldsOnlyWorkInFlight(t *testing.T) {
	tr := fiveThousand(t)
	res, err := Run(DefaultTestbed(), tr)
	if err != nil {
		t.Fatal(err)
	}
	hw := res.EventQueueMax
	t.Logf("engine queue high-water %d for %d requests", hw, len(tr.Records))
	if hw < 1 || hw > 64 {
		t.Errorf("engine queue high-water %d on the default PF run, want 1..64", hw)
	}
}

func TestReqQueueIsFIFOAndBounded(t *testing.T) {
	var q reqQueue
	reqs := make([]*request, 1000)
	for i := range reqs {
		reqs[i] = &request{fileID: i}
	}
	// Never drained: eight in, then one out per one in.
	next := 0
	for i, r := range reqs {
		q.push(r)
		if i >= 8 {
			if got := q.pop(); got != reqs[next] {
				t.Fatalf("pop %d returned request %d", next, got.fileID)
			}
			next++
		}
	}
	if q.len() != 8 || cap(q.buf) > 64 {
		t.Fatalf("len %d, cap %d after a steady backlog of 8; want 8 and a bounded store", q.len(), cap(q.buf))
	}
	for ; q.len() > 0; next++ {
		if got := q.pop(); got != reqs[next] {
			t.Fatalf("pop %d returned request %d", next, got.fileID)
		}
	}
	if next != len(reqs) || q.head != 0 || len(q.buf) != 0 {
		t.Fatalf("drained %d of %d; head %d, len %d", next, len(reqs), q.head, len(q.buf))
	}
}

// A write-free run reports its all-requests summary as ReadResponse: the
// read sampler would have held the same samples in the same order.
func TestWriteFreeRunReusesResponseSummary(t *testing.T) {
	res, err := Run(DefaultTestbed(), fiveThousand(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadResponse != res.Response || res.WriteResponse != (metrics.Summary{}) {
		t.Fatalf("response %+v, read %+v, write %+v", res.Response, res.ReadResponse, res.WriteResponse)
	}
}

// With writes, each summary is what a sampler of its own, fed in
// completion order from the journal and sorted on its own, gives.
func TestResponseSummariesMatchSeparateSamplers(t *testing.T) {
	cfg := workload.DefaultSynthetic()
	cfg.NumRequests, cfg.WriteFraction = 2000, 0.3
	tr, err := workload.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, writeBuffer := range []bool{false, true} {
		sim := DefaultTestbed()
		sim.WriteBuffer = writeBuffer
		sim.Journal = &telemetry.Journal{}
		res, err := Run(sim, tr)
		if err != nil {
			t.Fatal(err)
		}
		var all, reads, writes metrics.Sampler
		for _, e := range sim.Journal.Events() {
			if e.Kind != telemetry.KindRequest {
				continue
			}
			all.Add(e.DurS)
			if e.Detail == "write" {
				writes.Add(e.DurS)
			} else {
				reads.Add(e.DurS)
			}
		}
		if writes.N() == 0 || reads.N() == 0 {
			t.Fatalf("write buffer %v: %d reads, %d writes; want both", writeBuffer, reads.N(), writes.N())
		}
		for _, c := range []struct {
			name      string
			got, want metrics.Summary
		}{
			{"all", res.Response, all.Summarize()},
			{"read", res.ReadResponse, reads.Summarize()},
			{"write", res.WriteResponse, writes.Summarize()},
		} {
			if c.got != c.want {
				t.Errorf("write buffer %v, %s: result %+v, separate sampler %+v", writeBuffer, c.name, c.got, c.want)
			}
		}
	}
}

package cluster

import (
	"testing"

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

// The allocation guard (the yardstick's cluster.allocs_per_req, in tier-1):
// before the streamed event core a request cost 10.9 allocations — a heap
// event and a closure per arrival, service end and response, a request per
// hop. What is left is per-run set-up, about 0.2 per request at this trace
// length; one stray allocation on the per-request path takes it past 1.
func TestRunAllocationsPerRequest(t *testing.T) {
	tr := fiveThousand(t)
	arms := map[string]Config{
		"pf": DefaultTestbed(), "npf": DefaultTestbed().NPF(), "adaptive": DefaultTestbed().AdaptiveArm(),
	}
	for name, cfg := range arms {
		perRun := testing.AllocsPerRun(3, func() {
			if _, err := Run(cfg, tr); err != nil {
				t.Fatal(err)
			}
		})
		perReq := perRun / float64(len(tr.Records))
		t.Logf("%s: %.0f allocations per run, %.2f per request", name, perRun, perReq)
		if perReq > 1 {
			t.Errorf("%s: %.2f allocations per request, budget 1", name, perReq)
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

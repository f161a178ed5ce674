package simtest

import (
	"testing"

	"eevfs/internal/cluster"
)

// fakeCheck builds a CheckFn from a predicate, counting evaluations.
func fakeCheck(oracle string, failing func(Scenario) bool, calls *int) CheckFn {
	return func(s Scenario) *Failure {
		*calls++
		if failing(s) {
			return &Failure{Oracle: oracle, Msg: "synthetic"}
		}
		return nil
	}
}

// TestShrinkReachesFloor: a failure that holds regardless of scenario
// size must shrink all the way to the 1-request floor, and a PF arm that
// needs neither prewake nor hints to fail down to plain pf.
func TestShrinkReachesFloor(t *testing.T) {
	prewake := Generate(3001)
	prewake.Policy, prewake.PrefetchCount = cluster.PrefetchPrewake, 10
	for _, tc := range []struct {
		s      Scenario
		policy cluster.Policy
	}{
		{Generate(3001), cluster.AlwaysOn}, // a maid scenario
		{prewake, cluster.Prefetch},
	} {
		if err := tc.s.Valid(); err != nil {
			t.Fatalf("%s: %v", tc.s.Encode(), err)
		}
		calls := 0
		check := fakeCheck("always", func(Scenario) bool { return true }, &calls)
		min := Shrink(tc.s, check(tc.s), check)
		if min.Scenario.Requests != 1 || min.Scenario.Files != 1 {
			t.Errorf("always-failing scenario stopped at %d requests / %d files", min.Scenario.Requests, min.Scenario.Files)
		}
		if min.Scenario.NodeCount != 1 {
			t.Errorf("cluster not minimized: nodes=%d", min.Scenario.NodeCount)
		}
		if min.Scenario.Policy != tc.policy {
			t.Errorf("%v scenario shrank to policy %v, want %v", tc.s.Policy, min.Scenario.Policy, tc.policy)
		}
		if min.Failure == nil || min.Failure.Oracle != "always" {
			t.Errorf("minimal failure lost: %+v", min.Failure)
		}
	}
}

// TestShrinkPreservesTrigger: when the failure depends on a property
// (requests above a threshold), the shrinker must stop at the boundary,
// not below it.
func TestShrinkPreservesTrigger(t *testing.T) {
	s := Generate(3002)
	if s.Requests < 50 {
		s.Requests = 200
	}
	calls := 0
	check := fakeCheck("thresh", func(c Scenario) bool { return c.Requests >= 37 }, &calls)
	min := Shrink(s, check(s), check)
	if min.Scenario.Requests != 37 {
		t.Errorf("shrunk to %d requests, want exactly the 37 trigger", min.Scenario.Requests)
	}
}

// TestShrinkSameOracleOnly: a candidate failing a *different* oracle must
// be rejected, so minimization never drifts onto an unrelated bug.
func TestShrinkSameOracleOnly(t *testing.T) {
	s := Generate(3003)
	if s.Requests < 10 {
		s.Requests = 100
	}
	calls := 0
	// Scenarios below 10 requests fail oracle B; at or above, oracle A.
	check := func(c Scenario) *Failure {
		calls++
		if c.Requests < 10 {
			return &Failure{Oracle: "B", Msg: "different bug"}
		}
		return &Failure{Oracle: "A", Msg: "original bug"}
	}
	min := Shrink(s, check(s), check)
	if min.Failure.Oracle != "A" {
		t.Fatalf("shrinker drifted from oracle A to %s", min.Failure.Oracle)
	}
	if min.Scenario.Requests != 10 {
		t.Errorf("want the smallest still-A scenario (10 requests), got %d", min.Scenario.Requests)
	}
}

// TestShrinkBudget: evaluations are bounded even for adversarial checks.
func TestShrinkBudget(t *testing.T) {
	s := Generate(3004)
	calls := 0
	// Alternate pass/fail so the fixed point is never reached quickly.
	check := fakeCheck("flaky", func(c Scenario) bool { return c.Requests%2 == 1 || c.Requests > 1 }, &calls)
	min := Shrink(s, &Failure{Oracle: "flaky"}, check)
	if min.Runs > shrinkMaxRuns {
		t.Fatalf("shrinker spent %d runs, budget is %d", min.Runs, shrinkMaxRuns)
	}
}

// TestShrinkPassingCandidatesRejected: reductions that make the failure
// vanish must not be accepted.
func TestShrinkPassingCandidatesRejected(t *testing.T) {
	s := Generate(3005)
	s.WritePct = 25
	if err := s.Valid(); err != nil {
		t.Fatalf("steered scenario invalid: %v", err)
	}
	calls := 0
	check := fakeCheck("writes", func(c Scenario) bool { return c.WritePct > 0 }, &calls)
	min := Shrink(s, check(s), check)
	if min.Scenario.WritePct == 0 {
		t.Fatal("shrinker accepted a passing candidate")
	}
	if min.Scenario.Requests != 1 {
		t.Errorf("orthogonal dimension not minimized: %d requests", min.Scenario.Requests)
	}
}

// TestShrinkResultAlwaysFails: whatever happens, the returned scenario
// must itself fail (it is the thing printed as the repro).
func TestShrinkResultAlwaysFails(t *testing.T) {
	for i := 0; i < 20; i++ {
		s := Generate(uint64(3100 + i))
		calls := 0
		pred := func(c Scenario) bool { return c.Files > i%5 }
		check := fakeCheck("p", pred, &calls)
		if f := check(s); f != nil {
			min := Shrink(s, f, check)
			if !pred(min.Scenario) {
				t.Fatalf("seed %d: Shrink returned a passing scenario %+v", s.Seed, min.Scenario)
			}
		}
	}
}

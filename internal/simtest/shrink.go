package simtest

import "eevfs/internal/cluster"

// The shrinker: given a failing scenario, search for a smaller scenario
// that fails the *same* oracle, and keep reducing until a fixed point.
// Smaller means fewer requests and files first (they dominate repro
// reading time), then fewer policy toggles, then a smaller cluster. The result is the scenario printed in the one-line repro
// command, so minimality directly buys debuggability.

// CheckFn judges one scenario; nil means all invariants hold. Shrink is
// parameterized over it so tests can shrink against synthetic failure
// predicates without running the simulator.
type CheckFn func(Scenario) *Failure

// ShrinkResult reports what the shrinker found.
type ShrinkResult[S any] struct {
	Scenario S        // the minimal failing scenario
	Failure  *Failure // its (matching-oracle) failure
	Runs     int      // scenario evaluations spent
}

// shrinkMaxRuns bounds the search: each evaluation is a full double
// simulation, so the budget keeps worst-case shrink time to a few
// seconds.
const shrinkMaxRuns = 300

// Shrink minimizes a failing scenario. fail is the original failure;
// a candidate counts as "still failing" only when check returns a
// failure from the same oracle, so the shrinker cannot drift onto an
// unrelated bug while simplifying. The returned scenario always fails
// (it is the last accepted candidate, or the original).
func Shrink(s Scenario, fail *Failure, check CheckFn) ShrinkResult[Scenario] {
	return shrink(s, fail, check, func(c Scenario) bool { return c.Valid() == nil }, reducers, shrinkMaxRuns)
}

// shrink is the search both scenario kinds share: valid filters the
// proposals that cannot run, reducers propose them, maxRuns is the
// budget of evaluations.
func shrink[S comparable](s S, fail *Failure, check func(S) *Failure, valid func(S) bool, reducers []func(S) []S, maxRuns int) ShrinkResult[S] {
	res := ShrinkResult[S]{Scenario: s, Failure: fail}
	accept := func(cand S) bool {
		if res.Runs >= maxRuns || cand == res.Scenario || !valid(cand) {
			return false
		}
		res.Runs++
		f := check(cand)
		if f == nil || f.Oracle != fail.Oracle {
			return false
		}
		res.Scenario, res.Failure = cand, f
		return true
	}

	// Each pass walks every reducer; repeat until a whole pass accepts
	// nothing (fixed point) or the budget runs out.
	for changed := true; changed && res.Runs < maxRuns; {
		changed = false
		for _, reduce := range reducers {
			for _, cand := range reduce(res.Scenario) {
				if accept(cand) {
					changed = true
					break // re-propose from the smaller scenario
				}
			}
		}
	}
	return res
}

// reducers propose reduction candidates, most aggressive first (the
// classic delta-debugging ladder: try the big jump, fall back to smaller
// steps). Proposals may be invalid — Shrink filters through Valid().
var reducers = []func(Scenario) []Scenario{
	// Fewer requests: the strongest lever on repro size.
	func(s Scenario) []Scenario {
		return intLadder(s, s.Requests, 1, func(s Scenario, v int) Scenario { s.Requests = v; return s })
	},
	// Fewer files.
	func(s Scenario) []Scenario {
		return intLadder(s, s.Files, 1, func(s Scenario, v int) Scenario { s.Files = v; return s })
	},
	// Disable policy toggles one at a time.
	func(s Scenario) []Scenario {
		var out []Scenario
		for _, f := range []func(*Scenario){
			func(s *Scenario) { s.WritePct = 0 },
			func(s *Scenario) { s.SizeSpreadPct = 0 },
			func(s *Scenario) { s.StripeChunkKB = 0 },
			func(s *Scenario) { s.ReprefetchEvery = 0 },
			// The PF arms step down pf-prewake -> pf-hints -> pf.
			func(s *Scenario) {
				if s.Policy == cluster.PrefetchPrewake {
					s.Policy = cluster.PrefetchHinted
				}
			},
			func(s *Scenario) {
				if s.Policy == cluster.PrefetchHinted || s.Policy == cluster.PrefetchPrewake {
					s.Policy = cluster.Prefetch
				}
			},
			func(s *Scenario) { s.WriteBuffer = false },
			func(s *Scenario) { s.Concentrate = false },
			func(s *Scenario) {
				if s.Policy == cluster.MAID || s.Policy == cluster.ThresholdDPM {
					s.Policy = cluster.AlwaysOn
				}
			},
			func(s *Scenario) { s.BufferCapMB = 0 },
			func(s *Scenario) { s.InterArrivalMS = 0 },
		} {
			c := s
			f(&c)
			out = append(out, c)
		}
		return out
	},
	// Shrink the cluster.
	func(s Scenario) []Scenario {
		var out []Scenario
		for _, cand := range intLadder(s, s.NodeCount, 1, func(s Scenario, v int) Scenario {
			s.NodeCount = v
			s.Type2Count = min(s.Type2Count, v)
			return s
		}) {
			out = append(out, cand)
		}
		c := s
		c.Type2Count = 0
		out = append(out, c)
		return out
	},
	func(s Scenario) []Scenario {
		return intLadder(s, s.DataDisks, 1, func(s Scenario, v int) Scenario { s.DataDisks = v; return s })
	},
	func(s Scenario) []Scenario {
		return intLadder(s, s.BufferDisks, 1, func(s Scenario, v int) Scenario { s.BufferDisks = v; return s })
	},
	// Simplify the workload parameters.
	func(s Scenario) []Scenario {
		return intLadder(s, s.PrefetchCount, 1, func(s Scenario, v int) Scenario { s.PrefetchCount = v; return s })
	},
	func(s Scenario) []Scenario {
		return intLadder(s, s.MeanSizeKB, 1, func(s Scenario, v int) Scenario { s.MeanSizeKB = v; return s })
	},
	func(s Scenario) []Scenario {
		if s.MU <= 1 {
			return nil
		}
		c := s
		c.MU = 1
		return []Scenario{c}
	},
}

// intLadder proposes floor, then successive halvings toward floor, then
// the single-step decrement.
func intLadder[S any](s S, cur, floor int, with func(S, int) S) []S {
	if cur <= floor {
		return nil
	}
	var out []S
	seen := map[int]bool{cur: true}
	propose := func(v int) {
		if v < floor || seen[v] {
			return
		}
		seen[v] = true
		out = append(out, with(s, v))
	}
	propose(floor)
	for v := cur / 2; v > floor; v /= 2 {
		propose(v)
	}
	propose(cur - 1)
	return out
}

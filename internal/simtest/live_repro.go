package simtest

// Replay and shrink plumbing for live scenarios, mirroring the
// simulator's repro.go/shrink.go. The encoding is prefixed "live," so
// one -repro flag can carry either kind and the replayer can tell them
// apart.

import (
	"fmt"
	"strconv"
	"strings"
)

const liveReproPrefix = "live"

// liveFieldCodec binds one LiveScenario field to its repro key.
type liveFieldCodec struct {
	key string
	get func(*LiveScenario) string
	set func(*LiveScenario, string) error
}

func liveIntField(key string, p func(*LiveScenario) *int) liveFieldCodec {
	return liveFieldCodec{
		key: key,
		get: func(s *LiveScenario) string { return strconv.Itoa(*p(s)) },
		set: func(s *LiveScenario, v string) error {
			n, err := strconv.Atoi(v)
			if err != nil {
				return err
			}
			*p(s) = n
			return nil
		},
	}
}

func liveBoolField(key string, p func(*LiveScenario) *bool) liveFieldCodec {
	return liveFieldCodec{
		key: key,
		get: func(s *LiveScenario) string {
			if *p(s) {
				return "1"
			}
			return "0"
		},
		set: func(s *LiveScenario, v string) error {
			switch v {
			case "0":
				*p(s) = false
			case "1":
				*p(s) = true
			default:
				return fmt.Errorf("bad bool %q", v)
			}
			return nil
		},
	}
}

// liveCodecs lists every LiveScenario field in encoding order. KillNode
// is stored off by one so its -1 default ("no kill") elides like every
// other zero value.
var liveCodecs = []liveFieldCodec{
	{
		key: "seed",
		get: func(s *LiveScenario) string { return strconv.FormatUint(s.Seed, 10) },
		set: func(s *LiveScenario, v string) error {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return err
			}
			s.Seed = n
			return nil
		},
	},
	liveIntField("nodes", func(s *LiveScenario) *int { return &s.Nodes }),
	liveIntField("files", func(s *LiveScenario) *int { return &s.Files }),
	liveIntField("ops", func(s *LiveScenario) *int { return &s.Ops }),
	liveIntField("writes", func(s *LiveScenario) *int { return &s.WritePct }),
	liveIntField("latms", func(s *LiveScenario) *int { return &s.LatencyMS }),
	liveIntField("k", func(s *LiveScenario) *int { return &s.PrefetchK }),
	{
		key: "kill",
		get: func(s *LiveScenario) string { return strconv.Itoa(s.KillNode + 1) },
		set: func(s *LiveScenario, v string) error {
			n, err := strconv.Atoi(v)
			if err != nil {
				return err
			}
			s.KillNode = n - 1
			return nil
		},
	},
	liveIntField("srv", func(s *LiveScenario) *int { return &s.Servers }),
	liveBoolField("kp", func(s *LiveScenario) *bool { return &s.KillPrimary }),
	liveBoolField("rs", func(s *LiveScenario) *bool { return &s.RestartServer }),
	{
		key: "inject",
		get: func(s *LiveScenario) string { return s.Inject },
		set: func(s *LiveScenario, v string) error { s.Inject = v; return nil },
	},
}

// Encode serializes the live scenario as "live,v1,seed=...". Zero-valued
// fields are elided; Servers encodes only when the run is replicated.
func (s LiveScenario) Encode() string {
	parts := []string{liveReproPrefix, reproVersion}
	for _, c := range liveCodecs {
		v := c.get(&s)
		if c.key == "srv" && v == "1" {
			continue // standalone is the default
		}
		if v != "" && v != "0" {
			parts = append(parts, c.key+"="+v)
		}
	}
	return strings.Join(parts, ",")
}

// IsLiveRepro reports whether an encoded repro string describes a live
// scenario rather than a simulator one.
func IsLiveRepro(repro string) bool {
	return strings.HasPrefix(repro, liveReproPrefix+",")
}

// DecodeLiveScenario parses a string produced by LiveScenario.Encode.
func DecodeLiveScenario(repro string) (LiveScenario, error) {
	parts := strings.Split(repro, ",")
	if len(parts) < 2 || parts[0] != liveReproPrefix || parts[1] != reproVersion {
		return LiveScenario{}, fmt.Errorf("simtest: repro string is not %s,%s-versioned: %q", liveReproPrefix, reproVersion, repro)
	}
	byKey := make(map[string]liveFieldCodec, len(liveCodecs))
	for _, c := range liveCodecs {
		byKey[c.key] = c
	}
	s := LiveScenario{KillNode: -1, Servers: 1}
	for _, p := range parts[2:] {
		if p == "" {
			continue
		}
		k, v, ok := strings.Cut(p, "=")
		c, known := byKey[k]
		if !ok || !known {
			return LiveScenario{}, fmt.Errorf("simtest: bad live repro field %q", p)
		}
		if err := c.set(&s, v); err != nil {
			return LiveScenario{}, fmt.Errorf("simtest: live repro field %q: %w", p, err)
		}
	}
	return s, nil
}

// LiveReproCommand renders the one-line replay command for a live
// failure.
func LiveReproCommand(s LiveScenario) string {
	return fmt.Sprintf("eevfssim -repro='%s'", s.Encode())
}

// validLive rejects reduction candidates that cannot run.
func validLive(s LiveScenario) bool {
	return s.Nodes >= 2 && s.Files >= 1 && s.Ops >= 1 &&
		s.KillNode >= -1 && s.KillNode < s.Nodes &&
		s.Servers >= 1 && s.WritePct >= 0 && s.WritePct <= 100
}

// LiveCheckFn judges one live scenario; nil means all invariants hold.
type LiveCheckFn func(LiveScenario) *LiveFailure

// LiveShrinkResult reports what the live shrinker found.
type LiveShrinkResult struct {
	Scenario LiveScenario
	Failure  *LiveFailure
	Runs     int
}

// liveShrinkMaxRuns bounds the live search much tighter than the
// simulator's: every evaluation boots a real TCP cluster and costs
// real wall time.
const liveShrinkMaxRuns = 40

// ShrinkLive minimizes a failing live scenario. A candidate counts as
// "still failing" only when check reports a failure from the same
// oracle, so the shrinker cannot drift onto an unrelated bug. The
// returned scenario always fails (the last accepted candidate, or the
// original).
func ShrinkLive(s LiveScenario, fail *LiveFailure, check LiveCheckFn) LiveShrinkResult {
	res := LiveShrinkResult{Scenario: s, Failure: fail}
	accept := func(cand LiveScenario) bool {
		if res.Runs >= liveShrinkMaxRuns {
			return false
		}
		if cand == res.Scenario || !validLive(cand) {
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
	for changed := true; changed && res.Runs < liveShrinkMaxRuns; {
		changed = false
		for _, reduce := range liveReducers {
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

// liveReducers propose reduction candidates, strongest lever first.
var liveReducers = []func(LiveScenario) []LiveScenario{
	func(s LiveScenario) []LiveScenario {
		return liveIntLadder(s, s.Ops, 1, func(s LiveScenario, v int) LiveScenario { s.Ops = v; return s })
	},
	func(s LiveScenario) []LiveScenario {
		return liveIntLadder(s, s.Files, 1, func(s LiveScenario, v int) LiveScenario { s.Files = v; return s })
	},
	// Drop chaos dimensions one at a time.
	func(s LiveScenario) []LiveScenario {
		var out []LiveScenario
		for _, f := range []func(*LiveScenario){
			func(s *LiveScenario) { s.WritePct = 0 },
			func(s *LiveScenario) { s.LatencyMS = 0 },
			func(s *LiveScenario) { s.PrefetchK = 0 },
			func(s *LiveScenario) { s.KillNode = -1 },
			func(s *LiveScenario) { s.KillPrimary = false },
			func(s *LiveScenario) { s.RestartServer = false },
		} {
			c := s
			f(&c)
			out = append(out, c)
		}
		return out
	},
	// Shrink the cluster.
	func(s LiveScenario) []LiveScenario {
		return liveIntLadder(s, s.Servers, 1, func(s LiveScenario, v int) LiveScenario { s.Servers = v; return s })
	},
	func(s LiveScenario) []LiveScenario {
		return liveIntLadder(s, s.Nodes, 2, func(s LiveScenario, v int) LiveScenario {
			s.Nodes = v
			if s.KillNode >= v {
				s.KillNode = v - 1
			}
			return s
		})
	},
}

// liveIntLadder proposes floor, then halvings, then the decrement —
// the same delta-debugging ladder the simulator shrinker uses.
func liveIntLadder(s LiveScenario, cur, floor int, with func(LiveScenario, int) LiveScenario) []LiveScenario {
	if cur <= floor {
		return nil
	}
	var out []LiveScenario
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

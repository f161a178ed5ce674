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

// liveDefaults is what an absent field decodes to: no node kill, a
// standalone server.
var liveDefaults = LiveScenario{KillNode: -1, Servers: 1}

// liveCodecs lists every LiveScenario field in encoding order. KillNode
// is stored off by one so its -1 default ("no kill") elides like every
// other zero value.
var liveCodecs = []fieldCodec[LiveScenario]{
	seedField(func(s *LiveScenario) *uint64 { return &s.Seed }),
	intField("nodes", func(s *LiveScenario) *int { return &s.Nodes }),
	intField("files", func(s *LiveScenario) *int { return &s.Files }),
	intField("ops", func(s *LiveScenario) *int { return &s.Ops }),
	intField("writes", func(s *LiveScenario) *int { return &s.WritePct }),
	intField("latms", func(s *LiveScenario) *int { return &s.LatencyMS }),
	intField("k", func(s *LiveScenario) *int { return &s.PrefetchK }),
	{
		key: "kill",
		get: func(s *LiveScenario) string { return strconv.Itoa(s.KillNode + 1) },
		set: func(s *LiveScenario, v string) error {
			n, err := strconv.Atoi(v)
			s.KillNode = n - 1
			return err
		},
	},
	intField("srv", func(s *LiveScenario) *int { return &s.Servers }),
	boolField("kp", func(s *LiveScenario) *bool { return &s.KillPrimary }),
	boolField("rs", func(s *LiveScenario) *bool { return &s.RestartServer }),
	stringField("inject", func(s *LiveScenario) *string { return &s.Inject }),
}

// Encode serializes the live scenario as "live,v1,seed=...".
func (s LiveScenario) Encode() string {
	return encodeRepro(liveReproPrefix+","+reproVersion, liveCodecs, liveDefaults, s)
}

// IsLiveRepro reports whether an encoded repro string describes a live
// scenario rather than a simulator one.
func IsLiveRepro(repro string) bool {
	return strings.HasPrefix(repro, liveReproPrefix+",")
}

// DecodeLiveScenario parses a string produced by LiveScenario.Encode.
func DecodeLiveScenario(repro string) (LiveScenario, error) {
	return decodeRepro(repro, liveReproPrefix+","+reproVersion, liveCodecs, liveDefaults)
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

// liveShrinkMaxRuns bounds the live search much tighter than the
// simulator's: every evaluation boots a real TCP cluster and costs
// real wall time.
const liveShrinkMaxRuns = 40

// ShrinkLive is Shrink for a live scenario.
func ShrinkLive(s LiveScenario, fail *Failure, check func(LiveScenario) *Failure) ShrinkResult[LiveScenario] {
	return shrink(s, fail, check, validLive, liveReducers, liveShrinkMaxRuns)
}

// liveReducers propose reduction candidates, strongest lever first.
var liveReducers = []func(LiveScenario) []LiveScenario{
	func(s LiveScenario) []LiveScenario {
		return intLadder(s, s.Ops, 1, func(s LiveScenario, v int) LiveScenario { s.Ops = v; return s })
	},
	func(s LiveScenario) []LiveScenario {
		return intLadder(s, s.Files, 1, func(s LiveScenario, v int) LiveScenario { s.Files = v; return s })
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
		return intLadder(s, s.Servers, 1, func(s LiveScenario, v int) LiveScenario { s.Servers = v; return s })
	},
	func(s LiveScenario) []LiveScenario {
		return intLadder(s, s.Nodes, 2, func(s LiveScenario, v int) LiveScenario {
			s.Nodes = v
			if s.KillNode >= v {
				s.KillNode = v - 1
			}
			return s
		})
	},
}

package simtest

import (
	"fmt"
	"strconv"
	"strings"

	"eevfs/internal/cluster"
)

// reproVersion tags the textual scenario encoding so a stale repro string
// fails loudly instead of replaying the wrong scenario.
const reproVersion = "v1"

// fieldCodec binds one field of a scenario type S to its repro key.
type fieldCodec[S any] struct {
	key string
	get func(*S) string
	set func(*S, string) error
}

// parsedField builds the codec of a field of type T from its formatter
// and parser.
func parsedField[S any, T any](key string, p func(*S) *T, format func(T) string, parse func(string) (T, error)) fieldCodec[S] {
	return fieldCodec[S]{
		key: key,
		get: func(s *S) string { return format(*p(s)) },
		set: func(s *S, v string) (err error) {
			*p(s), err = parse(v)
			return err
		},
	}
}

func intField[S any](key string, p func(*S) *int) fieldCodec[S] {
	return parsedField(key, p, strconv.Itoa, strconv.Atoi)
}

func seedField[S any](p func(*S) *uint64) fieldCodec[S] {
	return parsedField("seed", p,
		func(n uint64) string { return strconv.FormatUint(n, 10) },
		func(v string) (uint64, error) { return strconv.ParseUint(v, 10, 64) })
}

func stringField[S any](key string, p func(*S) *string) fieldCodec[S] {
	return parsedField(key, p,
		func(v string) string { return v },
		func(v string) (string, error) { return v, nil })
}

func boolField[S any](key string, p func(*S) *bool) fieldCodec[S] {
	return parsedField(key, p,
		func(b bool) string {
			if b {
				return "1"
			}
			return "0"
		},
		func(v string) (bool, error) {
			if v != "0" && v != "1" {
				return false, fmt.Errorf("bad bool %q", v)
			}
			return v == "1", nil
		})
}

// policyField encodes a policy by its short name; AlwaysOn, the zero
// value, is elided like every other zero.
func policyField[S any](key string, p func(*S) *cluster.Policy) fieldCodec[S] {
	return parsedField(key, p, cluster.Policy.String, func(v string) (cluster.Policy, error) {
		for q := cluster.ThresholdDPM; q <= cluster.PrefetchPrewake; q++ {
			if v == q.String() {
				return q, nil
			}
		}
		return 0, fmt.Errorf("bad policy %q", v)
	})
}

func floatField[S any](key string, p func(*S) *float64) fieldCodec[S] {
	return parsedField(key, p,
		// 'g'/-1 prints the shortest representation that parses back to
		// the same float64, so encode/decode round-trips exactly.
		func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) },
		func(v string) (float64, error) { return strconv.ParseFloat(v, 64) })
}

// encodeRepro serializes s as a compact, shell-safe string: the prefix,
// then "key=value" for every field whose value is neither zero nor what
// defaults holds.
func encodeRepro[S any](prefix string, codecs []fieldCodec[S], defaults, s S) string {
	parts := []string{prefix}
	for _, c := range codecs {
		if v := c.get(&s); v != "" && v != "0" && v != c.get(&defaults) {
			parts = append(parts, c.key+"="+v)
		}
	}
	return strings.Join(parts, ",")
}

// decodeRepro parses a string encodeRepro produced, starting from
// defaults.
func decodeRepro[S any](repro, prefix string, codecs []fieldCodec[S], defaults S) (S, error) {
	var zero S
	rest, ok := strings.CutPrefix(repro+",", prefix+",")
	if !ok {
		return zero, fmt.Errorf("simtest: repro string is not %s-versioned: %q", prefix, repro)
	}
	byKey := make(map[string]fieldCodec[S], len(codecs))
	for _, c := range codecs {
		byKey[c.key] = c
	}
	s := defaults
	for _, p := range strings.Split(rest, ",") {
		if p == "" {
			continue
		}
		k, v, ok := strings.Cut(p, "=")
		c, known := byKey[k]
		if !ok || !known {
			return zero, fmt.Errorf("simtest: bad repro field %q", p)
		}
		if err := c.set(&s, v); err != nil {
			return zero, fmt.Errorf("simtest: repro field %q: %w", p, err)
		}
	}
	return s, nil
}

// codecs lists every Scenario field in encoding order. Adding a field
// here is all a new scenario dimension needs to become replayable.
var codecs = []fieldCodec[Scenario]{
	seedField(func(s *Scenario) *uint64 { return &s.Seed }),
	intField("nodes", func(s *Scenario) *int { return &s.NodeCount }),
	intField("t2", func(s *Scenario) *int { return &s.Type2Count }),
	intField("dd", func(s *Scenario) *int { return &s.DataDisks }),
	intField("bd", func(s *Scenario) *int { return &s.BufferDisks }),
	policyField("policy", func(s *Scenario) *cluster.Policy { return &s.Policy }),
	intField("k", func(s *Scenario) *int { return &s.PrefetchCount }),
	boolField("wb", func(s *Scenario) *bool { return &s.WriteBuffer }),
	boolField("pdc", func(s *Scenario) *bool { return &s.Concentrate }),
	intField("stripekb", func(s *Scenario) *int { return &s.StripeChunkKB }),
	intField("repref", func(s *Scenario) *int { return &s.ReprefetchEvery }),
	floatField("idle", func(s *Scenario) *float64 { return &s.IdleThresholdSec }),
	intField("bufmb", func(s *Scenario) *int { return &s.BufferCapMB }),
	floatField("routems", func(s *Scenario) *float64 { return &s.RouteLatencyMS }),
	intField("files", func(s *Scenario) *int { return &s.Files }),
	intField("reqs", func(s *Scenario) *int { return &s.Requests }),
	intField("sizekb", func(s *Scenario) *int { return &s.MeanSizeKB }),
	intField("spread", func(s *Scenario) *int { return &s.SizeSpreadPct }),
	floatField("mu", func(s *Scenario) *float64 { return &s.MU }),
	floatField("delayms", func(s *Scenario) *float64 { return &s.InterArrivalMS }),
	intField("writes", func(s *Scenario) *int { return &s.WritePct }),
	intField("dphases", func(s *Scenario) *int { return &s.DriftPhases }),
	intField("flash", func(s *Scenario) *int { return &s.FlashPct }),
	intField("diurnal", func(s *Scenario) *int { return &s.DiurnalPct }),
	stringField("inject", func(s *Scenario) *string { return &s.Inject }),
}

// Encode serializes the scenario as "v1,seed=42,nodes=3,...".
func (s Scenario) Encode() string { return encodeRepro(reproVersion, codecs, Scenario{}, s) }

// DecodeScenario parses a string produced by Encode.
func DecodeScenario(repro string) (Scenario, error) {
	return decodeRepro(repro, reproVersion, codecs, Scenario{})
}

// ReproCommand renders the one-line replay command printed on failures.
func ReproCommand(s Scenario) string {
	return fmt.Sprintf("eevfssim -seed=%d -repro='%s'", s.Seed, s.Encode())
}

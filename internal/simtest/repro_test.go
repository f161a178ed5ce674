package simtest

import (
	"strings"
	"testing"
)

// TestReproRoundTrip: Encode/Decode must be lossless for generated
// scenarios, including float fields (mu, inter-arrival) that need exact
// shortest-form formatting.
func TestReproRoundTrip(t *testing.T) {
	for i := 0; i < 200; i++ {
		s := Generate(uint64(9000 + i))
		if i%3 == 0 {
			s.Inject = InjectReadStandby
		}
		got, err := DecodeScenario(s.Encode())
		if err != nil {
			t.Fatalf("seed %d: decode: %v", s.Seed, err)
		}
		if got != s {
			t.Fatalf("seed %d: round trip lost data:\nin  %+v\nout %+v\nrepro %s", s.Seed, s, got, s.Encode())
		}
	}
}

// TestReproElidesZeros: the encoding stays short by dropping zero-valued
// fields, and the zero value decodes back.
func TestReproElidesZeros(t *testing.T) {
	s := Scenario{Seed: 5, NodeCount: 1, DataDisks: 1, Files: 1, Requests: 1, MeanSizeKB: 4, MU: 1}
	enc := s.Encode()
	for _, absent := range []string{"maid", "wb", "hints", "down", "inject", "writes"} {
		if strings.Contains(enc, absent+"=") {
			t.Errorf("zero field %q encoded: %s", absent, enc)
		}
	}
	got, err := DecodeScenario(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got != s {
		t.Fatalf("elided round trip lost data: %+v vs %+v", got, s)
	}
}

// TestDecodeErrors: stale or mangled repro strings must fail loudly, not
// replay a wrong scenario.
func TestDecodeErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"empty", ""},
		{"wrong version", "v0,seed=1"},
		{"no version", "seed=1,nodes=2"},
		{"unknown key", "v1,seed=1,bogus=3"},
		{"missing equals", "v1,seed"},
		{"bad int", "v1,nodes=three"},
		{"bad bool", "v1,pf=yes"},
		{"bad float", "v1,mu=fast"},
		{"bad seed", "v1,seed=-1"},
	}
	for _, tc := range cases {
		if _, err := DecodeScenario(tc.in); err == nil {
			t.Errorf("%s: DecodeScenario(%q) succeeded, want error", tc.name, tc.in)
		}
	}
}

// TestReproKeysUnique guards the codec table against a copy-paste
// duplicate key, which would make decoding silently last-writer-wins.
func TestReproKeysUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range codecs {
		if seen[c.key] {
			t.Fatalf("duplicate repro key %q", c.key)
		}
		seen[c.key] = true
	}
}

// TestReproCommandShape: the printed line must be copy-pasteable.
func TestReproCommandShape(t *testing.T) {
	s := Generate(77)
	cmd := ReproCommand(s)
	want := "eevfssim -seed=77 -repro='" + s.Encode() + "'"
	if cmd != want {
		t.Fatalf("ReproCommand = %q, want %q", cmd, want)
	}
}

package simtest

import (
	"strings"
	"testing"

	"eevfs/internal/cluster"
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
	for _, absent := range []string{"policy", "wb", "inject", "writes"} {
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
	// key is what the error must name.
	cases := []struct{ name, in, key string }{
		{"empty", "", ""},
		{"wrong version", "v0,seed=1", "v0"},
		{"no version", "seed=1,nodes=2", "seed=1"},
		{"unknown key", "v1,seed=1,bogus=3", "bogus"},
		{"missing equals", "v1,seed", "seed"},
		{"bad int", "v1,nodes=three", "nodes"},
		{"bad bool", "v1,wb=yes", "wb"},
		{"bad policy", "v1,policy=on", "policy"},
		{"elided policy spelled out", "v1,policy=npf", "policy"},
		// The keys the policy replaced: a string written before it must
		// fail rather than replay the NPF arm.
		{"pre-policy pf", "v1,seed=1,pf=1", "pf=1"},
		{"pre-policy dpm", "v1,seed=1,dpm=1", "dpm=1"},
		{"pre-policy maid", "v1,seed=1,maid=1", "maid=1"},
		{"pre-policy adaptive", "v1,seed=1,adaptive=1", "adaptive=1"},
		// The keys the pf-hints and pf-prewake policies replaced, and the
		// down nodes that are now a smaller cluster.
		{"pre-policy hints", "v1,seed=1,policy=pf,hints=1", "hints"},
		{"pre-policy prewake", "v1,seed=1,policy=pf,hints=1,prewake=1", "hints"},
		{"pre-policy prewake alone", "v1,seed=1,policy=pf-hints,prewake=1", "prewake"},
		{"down nodes", "v1,seed=1,nodes=3,down=1", "down"},
		{"bad float", "v1,mu=fast", "mu"},
		{"bad seed", "v1,seed=-1", "seed"},
	}
	for _, tc := range cases {
		_, err := DecodeScenario(tc.in)
		if err == nil {
			t.Errorf("%s: DecodeScenario(%q) succeeded, want error", tc.name, tc.in)
		} else if !strings.Contains(err.Error(), tc.key) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.key)
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

// TestPrePolicyReproDecodes: a string that names no policy means NPF, so
// one written before the policy key existed replays unchanged.
func TestPrePolicyReproDecodes(t *testing.T) {
	const old = "v1,seed=20,nodes=1,dd=2,bd=1,pdc=1,idle=1,routems=0.5,files=212,reqs=75,sizekb=2768,mu=211.29409789598034,delayms=333"
	s, err := DecodeScenario(old)
	if err != nil {
		t.Fatal(err)
	}
	if s != Generate(20) || s.Policy != cluster.AlwaysOn {
		t.Fatalf("decoded %+v, want Generate(20), an NPF scenario", s)
	}
	if got := s.Encode(); got != old {
		t.Fatalf("re-encoded as %s", got)
	}
}

// TestGeneratorStable pins what a seed means: the scenarios seeds 1-20
// generate, by Generate and by GenerateDrift. A seed printed by a failing
// soak run must replay the same scenario on a later tree.
func TestGeneratorStable(t *testing.T) {
	for name, tc := range map[string]struct {
		gen  func(uint64) Scenario
		want []string
	}{
		"Generate": {Generate, []string{
			"v1,seed=1,nodes=2,t2=1,dd=3,bd=2,policy=pf,k=2,idle=5,routems=1,files=47,reqs=265,sizekb=5550,spread=7,mu=33.817131634254665,delayms=407",
			"v1,seed=2,nodes=6,dd=1,bd=2,policy=pf,k=59,idle=1,routems=1,files=254,reqs=150,sizekb=8066,spread=5,mu=1.1908846771032808,delayms=684",
			"v1,seed=3,nodes=3,t2=2,dd=3,bd=1,policy=adaptive,idle=10,routems=2,files=43,reqs=143,sizekb=4438,mu=218.1736458242899,delayms=764,flash=34",
			"v1,seed=4,nodes=6,t2=3,dd=3,bd=1,policy=adaptive,idle=5,routems=1,files=113,reqs=137,sizekb=6133,mu=8.081775564093551,delayms=221,dphases=10,flash=55",
			"v1,seed=5,nodes=6,dd=1,bd=2,policy=adaptive,idle=10,routems=0.5,files=281,reqs=147,sizekb=7455,mu=12.700723950747637,delayms=967,dphases=11,diurnal=47",
			"v1,seed=6,nodes=1,t2=1,dd=3,bd=2,idle=5,routems=0.5,files=281,reqs=169,sizekb=2011,mu=2.2706834754771585,delayms=761",
			"v1,seed=7,nodes=1,dd=1,bd=1,policy=pf-hints,k=47,idle=1,routems=1,files=117,reqs=162,sizekb=1689,spread=37,mu=2,delayms=620",
			"v1,seed=8,nodes=2,t2=2,dd=1,bd=2,policy=maid,idle=2,routems=1.5,files=100,reqs=73,sizekb=807,mu=1434.2767036237988,delayms=804,writes=22",
			"v1,seed=9,nodes=3,t2=1,dd=3,bd=1,policy=pf,k=66,idle=1,routems=2,files=112,reqs=284,sizekb=1034,mu=1,delayms=625",
			"v1,seed=10,nodes=2,t2=2,dd=2,bd=1,policy=pf,k=104,wb=1,idle=5,routems=2,files=174,reqs=216,sizekb=503,mu=10,delayms=744",
			"v1,seed=11,nodes=1,dd=2,bd=1,policy=maid,stripekb=1024,idle=10,routems=0.5,files=275,reqs=108,sizekb=8358,spread=34,mu=4.528556152337812,writes=17",
			"v1,seed=12,nodes=2,t2=1,dd=3,bd=1,policy=adaptive,idle=1,routems=1,files=185,reqs=206,sizekb=5950,spread=45,mu=182.74339599776712,delayms=535,dphases=9,diurnal=62",
			"v1,seed=13,nodes=1,t2=1,dd=3,bd=1,policy=pf-hints,k=75,stripekb=256,idle=5,routems=1.5,files=56,reqs=219,sizekb=962,spread=4,mu=10,delayms=992",
			"v1,seed=14,nodes=2,dd=3,bd=2,policy=adaptive,idle=1,bufmb=156,routems=1.5,files=281,reqs=258,sizekb=7600,mu=1.680481725795377,delayms=755,dphases=8",
			"v1,seed=15,nodes=2,dd=1,bd=1,policy=adaptive,idle=5,routems=2,files=263,reqs=60,sizekb=8176,spread=46,mu=33.555026988856355,delayms=137,dphases=7",
			"v1,seed=16,nodes=3,t2=1,dd=3,bd=2,policy=pf-prewake,k=98,idle=2,routems=0.5,files=72,reqs=201,sizekb=2006,spread=35,mu=4,delayms=947",
			"v1,seed=17,nodes=3,t2=1,dd=2,bd=2,policy=adaptive,idle=1,bufmb=104,routems=2,files=171,reqs=241,sizekb=2662,mu=1.3303002431393252,delayms=502,dphases=5,flash=66",
			"v1,seed=18,nodes=4,t2=1,dd=1,bd=1,policy=adaptive,idle=1,routems=2.5,files=57,reqs=152,sizekb=3683,spread=11,mu=188.87603922969305,delayms=907",
			"v1,seed=19,nodes=5,t2=3,dd=1,bd=1,policy=adaptive,idle=1,routems=0.5,files=214,reqs=92,sizekb=5222,mu=9.75216584961818,delayms=540,dphases=4,diurnal=73",
			"v1,seed=20,nodes=1,dd=2,bd=1,pdc=1,idle=1,routems=0.5,files=212,reqs=75,sizekb=2768,mu=211.29409789598034,delayms=333",
		}},
		"GenerateDrift": {GenerateDrift, []string{
			"v1,seed=1,nodes=2,t2=1,dd=3,bd=2,policy=adaptive,idle=5,routems=1,files=47,reqs=265,sizekb=5550,spread=7,mu=33.817131634254665,delayms=407,dphases=9,flash=30,diurnal=23",
			"v1,seed=2,nodes=6,dd=1,bd=2,policy=adaptive,idle=1,routems=1,files=254,reqs=150,sizekb=8066,spread=5,mu=1.1908846771032808,delayms=684,dphases=6",
			"v1,seed=3,nodes=3,t2=2,dd=3,bd=1,policy=adaptive,idle=10,routems=2,files=43,reqs=143,sizekb=4438,mu=218.1736458242899,delayms=764,dphases=10,flash=34",
			"v1,seed=4,nodes=6,t2=3,dd=3,bd=1,policy=adaptive,idle=5,routems=1,files=113,reqs=137,sizekb=6133,mu=8.081775564093551,delayms=221,dphases=4,flash=55,diurnal=37",
			"v1,seed=5,nodes=6,dd=1,bd=2,policy=adaptive,idle=10,routems=0.5,files=281,reqs=147,sizekb=7455,mu=12.700723950747637,delayms=967,dphases=9,flash=49,diurnal=64",
			"v1,seed=6,nodes=1,t2=1,dd=3,bd=2,policy=adaptive,idle=5,routems=0.5,files=281,reqs=169,sizekb=2011,mu=2.2706834754771585,delayms=761,dphases=7,flash=69",
			"v1,seed=7,nodes=1,dd=1,bd=1,policy=adaptive,idle=1,routems=1,files=117,reqs=162,sizekb=1689,spread=37,mu=2,delayms=620,dphases=6,diurnal=21",
			"v1,seed=8,nodes=2,t2=2,dd=1,bd=2,policy=adaptive,idle=2,routems=1.5,files=100,reqs=153,sizekb=807,mu=1434.2767036237988,delayms=804,dphases=5",
			"v1,seed=9,nodes=3,t2=1,dd=3,bd=1,policy=adaptive,idle=1,routems=2,files=112,reqs=284,sizekb=1034,mu=1,delayms=625,dphases=9",
			"v1,seed=10,nodes=2,t2=2,dd=2,bd=1,policy=adaptive,idle=5,routems=2,files=174,reqs=216,sizekb=503,mu=10,delayms=744,dphases=12,flash=51",
			"v1,seed=11,nodes=1,dd=2,bd=1,policy=adaptive,stripekb=1024,idle=10,routems=0.5,files=275,reqs=108,sizekb=8358,spread=34,mu=4.528556152337812,dphases=6,flash=27",
			"v1,seed=12,nodes=2,t2=1,dd=3,bd=1,policy=adaptive,idle=1,routems=1,files=185,reqs=206,sizekb=5950,spread=45,mu=182.74339599776712,delayms=535,dphases=6,flash=57,diurnal=62",
			"v1,seed=13,nodes=1,t2=1,dd=3,bd=1,policy=adaptive,stripekb=256,idle=5,routems=1.5,files=56,reqs=219,sizekb=962,spread=4,mu=10,delayms=992,dphases=5,diurnal=29",
			"v1,seed=14,nodes=2,dd=3,bd=2,policy=adaptive,idle=1,bufmb=156,routems=1.5,files=281,reqs=258,sizekb=7600,mu=1.680481725795377,delayms=755,dphases=1,flash=53,diurnal=76",
			"v1,seed=15,nodes=2,dd=1,bd=1,policy=adaptive,idle=5,routems=2,files=263,reqs=140,sizekb=8176,spread=46,mu=33.555026988856355,delayms=137,dphases=5",
			"v1,seed=16,nodes=3,t2=1,dd=3,bd=2,policy=adaptive,idle=2,routems=0.5,files=72,reqs=201,sizekb=2006,spread=35,mu=4,delayms=947,dphases=5,flash=63",
			"v1,seed=17,nodes=3,t2=1,dd=2,bd=2,policy=adaptive,idle=1,bufmb=104,routems=2,files=171,reqs=241,sizekb=2662,mu=1.3303002431393252,delayms=502,dphases=7,flash=66",
			"v1,seed=18,nodes=4,t2=1,dd=1,bd=1,policy=adaptive,idle=1,routems=2.5,files=57,reqs=152,sizekb=3683,spread=11,mu=188.87603922969305,delayms=907,dphases=1,flash=23",
			"v1,seed=19,nodes=5,t2=3,dd=1,bd=1,policy=adaptive,idle=1,routems=0.5,files=214,reqs=92,sizekb=5222,mu=9.75216584961818,delayms=540,dphases=6,diurnal=73",
			"v1,seed=20,nodes=1,dd=2,bd=1,policy=adaptive,idle=1,routems=0.5,files=212,reqs=155,sizekb=2768,mu=211.29409789598034,delayms=333,dphases=1",
		}},
	} {
		for i, want := range tc.want {
			if got := tc.gen(uint64(i + 1)).Encode(); got != want {
				t.Errorf("%s(%d) = %s\nwant %s", name, i+1, got, want)
			}
		}
	}
}

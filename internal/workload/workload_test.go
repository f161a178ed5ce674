package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"eevfs/internal/trace"
)

func TestSyntheticDefaultsValid(t *testing.T) {
	tr, err := Synthetic(DefaultSynthetic())
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("generated trace invalid: %v", err)
	}
	if tr.NumFiles() != 1000 || len(tr.Records) != 1000 {
		t.Fatalf("files=%d records=%d, want 1000/1000", tr.NumFiles(), len(tr.Records))
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	cfg := DefaultSynthetic()
	a, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Records) != len(b.Records) {
		t.Fatal("lengths differ")
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, a.Records[i], b.Records[i])
		}
	}
}

func TestSyntheticSeedMatters(t *testing.T) {
	cfg := DefaultSynthetic()
	a, _ := Synthetic(cfg)
	cfg.Seed = 99
	b, _ := Synthetic(cfg)
	diff := 0
	for i := range a.Records {
		if a.Records[i].FileID != b.Records[i].FileID {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical file id streams")
	}
}

func TestSyntheticInterArrivalSpacing(t *testing.T) {
	cfg := DefaultSynthetic()
	cfg.InterArrival = 0.35
	tr, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range tr.Records {
		want := 0.35 * float64(i)
		if math.Abs(r.TimeS-want) > 1e-9 {
			t.Fatalf("record %d at %g, want %g", i, r.TimeS, want)
		}
	}
}

func TestSyntheticZeroDelayAllAtOnce(t *testing.T) {
	cfg := DefaultSynthetic()
	cfg.InterArrival = 0
	tr, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Duration() != 0 {
		t.Fatalf("duration %g, want 0", tr.Duration())
	}
}

func TestSyntheticMUSkew(t *testing.T) {
	// MU=1 should concentrate requests on very few files; MU=1000 should
	// spread them widely.
	cfg := DefaultSynthetic()
	cfg.MU = 1
	low, _ := Synthetic(cfg)
	cfg.MU = 1000
	high, _ := Synthetic(cfg)

	distinct := func(tr *trace.Trace) int {
		seen := map[int]bool{}
		for _, r := range tr.Records {
			seen[r.FileID] = true
		}
		return len(seen)
	}
	dl, dh := distinct(low), distinct(high)
	if dl >= 10 {
		t.Errorf("MU=1 touched %d distinct files, want < 10", dl)
	}
	if dh <= 100 {
		t.Errorf("MU=1000 touched %d distinct files, want > 100", dh)
	}
}

func TestSyntheticFixedSizes(t *testing.T) {
	cfg := DefaultSynthetic()
	cfg.MeanSize = 25e6
	tr, _ := Synthetic(cfg)
	for i, sz := range tr.FileSizes {
		if sz != 25e6 {
			t.Fatalf("file %d size %d, want 25e6 (spread=0)", i, sz)
		}
	}
}

func TestSyntheticSizeSpread(t *testing.T) {
	cfg := DefaultSynthetic()
	cfg.SizeSpread = 0.5
	tr, _ := Synthetic(cfg)
	varied := false
	for _, sz := range tr.FileSizes {
		lo, hi := int64(0.5*float64(cfg.MeanSize))-1, int64(1.5*float64(cfg.MeanSize))+1
		if sz < lo || sz > hi {
			t.Fatalf("size %d outside [%d,%d]", sz, lo, hi)
		}
		if sz != cfg.MeanSize {
			varied = true
		}
	}
	if !varied {
		t.Fatal("spread=0.5 produced no size variation")
	}
}

func TestSyntheticWriteFraction(t *testing.T) {
	cfg := DefaultSynthetic()
	cfg.WriteFraction = 0.3
	cfg.NumRequests = 5000
	tr, _ := Synthetic(cfg)
	writes := 0
	for _, r := range tr.Records {
		if r.Op == trace.Write {
			writes++
		}
	}
	frac := float64(writes) / float64(len(tr.Records))
	if math.Abs(frac-0.3) > 0.03 {
		t.Fatalf("write fraction %g, want ~0.3", frac)
	}
}

func TestSyntheticValidation(t *testing.T) {
	bad := []func(*SyntheticConfig){
		func(c *SyntheticConfig) { c.NumFiles = 0 },
		func(c *SyntheticConfig) { c.NumRequests = -1 },
		func(c *SyntheticConfig) { c.MeanSize = 0 },
		func(c *SyntheticConfig) { c.SizeSpread = 1.5 },
		func(c *SyntheticConfig) { c.MU = -1 },
		func(c *SyntheticConfig) { c.InterArrival = -1 },
		func(c *SyntheticConfig) { c.WriteFraction = 2 },
	}
	for i, mod := range bad {
		cfg := DefaultSynthetic()
		mod(&cfg)
		if _, err := Synthetic(cfg); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
}

func TestFoldedPoissonMassSumsToOne(t *testing.T) {
	for _, mu := range []float64{1, 10, 100, 1000} {
		sum := 0.0
		for i := 0; i < 1000; i++ {
			sum += FoldedPoissonMass(mu, 1000, i)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("MU=%g folded mass sums to %g", mu, sum)
		}
	}
}

func TestFoldedPoissonMassEdge(t *testing.T) {
	if FoldedPoissonMass(10, 0, 0) != 0 {
		t.Error("n=0 should give 0")
	}
	if FoldedPoissonMass(10, 100, -1) != 0 || FoldedPoissonMass(10, 100, 100) != 0 {
		t.Error("out-of-range id should give 0")
	}
}

// TestTopKCoverageCrossover pins the coverage structure that drives the
// paper's Fig. 3(b): with K=70 of 1000 files, MU <= 100 is essentially
// fully covered while MU = 1000 is only partially covered.
func TestTopKCoverageCrossover(t *testing.T) {
	for _, mu := range []float64{1, 10, 100} {
		if cov := TopKCoverage(mu, 1000, 70); cov < 0.999 {
			t.Errorf("MU=%g coverage %g, want >= 0.999", mu, cov)
		}
	}
	cov1000 := TopKCoverage(1000, 1000, 70)
	if cov1000 > 0.95 || cov1000 < 0.5 {
		t.Errorf("MU=1000 coverage %g, want partial (0.5..0.95)", cov1000)
	}
}

// TestTopKCoverageMonotoneInK pins the Fig. 3(d) structure: more prefetched
// files -> more coverage.
func TestTopKCoverageMonotoneInK(t *testing.T) {
	prev := -1.0
	for _, k := range []int{10, 40, 70, 100} {
		cov := TopKCoverage(1000, 1000, k)
		if cov < prev {
			t.Fatalf("coverage not monotone: K=%d gives %g < %g", k, cov, prev)
		}
		prev = cov
	}
	if c10 := TopKCoverage(1000, 1000, 10); c10 > 0.5 {
		t.Errorf("K=10 coverage %g, want small (paper: 3%% savings)", c10)
	}
}

func TestTopKCoverageFullWhenKEqualsN(t *testing.T) {
	if cov := TopKCoverage(50, 100, 100); cov != 1 {
		t.Errorf("K=N coverage = %g, want 1", cov)
	}
}

func TestEmpiricalCountsMatchFoldedModel(t *testing.T) {
	// The generator's empirical distribution should agree with the
	// analytic folded PMF on aggregate coverage.
	cfg := DefaultSynthetic()
	cfg.NumRequests = 20000
	cfg.MU = 1000
	tr, _ := Synthetic(cfg)
	counts := tr.Counts()
	ranks := trace.RankByCount(counts)
	top := 0
	for i := 0; i < 70; i++ {
		top += counts[ranks[i]]
	}
	empirical := float64(top) / float64(len(tr.Records))
	analytic := TopKCoverage(1000, 1000, 70)
	if math.Abs(empirical-analytic) > 0.05 {
		t.Errorf("empirical top-70 coverage %g vs analytic %g", empirical, analytic)
	}
}

// TestBerkeleyWebDefaults checks the Berkeley web trace's point: every
// request is a read of the Zipf working set.
func TestBerkeleyWebDefaults(t *testing.T) {
	cfg := DefaultWeb()
	tr, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, r := range tr.Records {
		if r.FileID >= cfg.WorkingSet {
			t.Fatalf("request to file %d outside working set %d", r.FileID, cfg.WorkingSet)
		}
		if r.Op != trace.Read {
			t.Fatal("web trace must be read-only")
		}
	}
}

// TestBerkeleyWebValidation walks the invalid corners of Zipf popularity
// from the web point.
func TestBerkeleyWebValidation(t *testing.T) {
	mods := map[string]func(*SyntheticConfig){
		"zero files":           func(c *SyntheticConfig) { c.NumFiles = 0 },
		"negative working set": func(c *SyntheticConfig) { c.WorkingSet = -1 },
		"working set over":     func(c *SyntheticConfig) { c.WorkingSet = c.NumFiles + 1 },
		"mu with working set":  func(c *SyntheticConfig) { c.MU = 10 },
		"working set zipf 0":   func(c *SyntheticConfig) { c.ZipfS = 0 },
		"zipf no working set":  func(c *SyntheticConfig) { c.WorkingSet = 0 },
		"zero mean size":       func(c *SyntheticConfig) { c.MeanSize = 0 },
		"negative arrival":     func(c *SyntheticConfig) { c.InterArrival = -1 },
		"negative requests":    func(c *SyntheticConfig) { c.NumRequests = -1 },
	}
	for name, mod := range mods {
		cfg := DefaultWeb()
		mod(&cfg)
		if _, err := Synthetic(cfg); err == nil {
			t.Errorf("%s: bad config accepted", name)
		}
	}
	if err := DefaultWeb().Validate(); err != nil {
		t.Errorf("DefaultWeb rejected: %v", err)
	}
}

// Property: generated traces are always valid and have the requested
// shape, across arbitrary parameter corners.
func TestQuickSyntheticAlwaysValid(t *testing.T) {
	f := func(seed uint64, nfRaw, nrRaw uint8, muRaw uint16) bool {
		cfg := SyntheticConfig{
			NumFiles:     int(nfRaw)%200 + 1,
			NumRequests:  int(nrRaw) % 200,
			MeanSize:     1e6,
			MU:           float64(muRaw % 2000),
			InterArrival: 0.1,
			Seed:         seed,
		}
		tr, err := Synthetic(cfg)
		if err != nil {
			return false
		}
		return tr.Validate() == nil && len(tr.Records) == cfg.NumRequests
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSynthetic(b *testing.B) {
	cfg := DefaultSynthetic()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Synthetic(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// syntheticDigest is the SHA-256 of the traces TestSyntheticTracesPinned
// generates. Every draw of the generator feeds it, so any change in the
// order or the value of a draw (the Poisson sampler's included) moves it.
const syntheticDigest = "fa7bec95a515d6aaf52c5fa85d31ffa4d61b76fc58dbbd9b50570aa352ffb742"

// webDigest is the SHA-256 of the traces TestWebTracesPinned generates,
// the Zipf-popularity traces that fig6, ext-baselines and the replay
// tests run on.
const webDigest = "8bdace6ec346129b3da765951abd3026f80cc5ef562bd3b7aeb1eafefc6f271b"

// tracesDigest hashes the traces Synthetic generates from cfgs: each
// trace's file sizes, then one line per record.
func tracesDigest(t *testing.T, cfgs []SyntheticConfig) string {
	t.Helper()
	h := sha256.New()
	for _, cfg := range cfgs {
		tr, err := Synthetic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(h, tr.FileSizes)
		for _, r := range tr.Records {
			fmt.Fprintf(h, "%d %v %d %d %d\n", r.Seq, r.TimeS, r.Op, r.FileID, r.Size)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSyntheticTracesPinned hashes Synthetic's traces at MU 1, 10, 100 and
// 1000 (both Poisson methods, either side of the switch at 30) and on a
// drifting workload with a flash crowd and writes.
func TestSyntheticTracesPinned(t *testing.T) {
	var cfgs []SyntheticConfig
	for _, mu := range []float64{1, 10, 100, 1000} {
		cfg := DefaultSynthetic()
		cfg.MU = mu
		cfgs = append(cfgs, cfg)
	}
	drift := DefaultDrift()
	drift.FlashStartFrac, drift.FlashDurFrac, drift.FlashBoost, drift.FlashFiles = 0.5, 0.2, 0.5, 8
	drift.WriteFraction = 0.2
	cfgs = append(cfgs, drift)
	if got := tracesDigest(t, cfgs); got != syntheticDigest {
		t.Errorf("synthetic traces digest %s, want %s", got, syntheticDigest)
	}
}

// TestWebTracesPinned hashes the Zipf-popularity traces: Fig. 6's point at
// seeds 1, 2 and 7, and the small working set the replay tests use.
func TestWebTracesPinned(t *testing.T) {
	var cfgs []SyntheticConfig
	for _, seed := range []uint64{1, 2, 7} {
		cfg := DefaultWeb()
		cfg.Seed = seed
		cfgs = append(cfgs, cfg)
	}
	cfgs = append(cfgs, SyntheticConfig{
		NumFiles: 30, NumRequests: 60, WorkingSet: 8, ZipfS: 1.1,
		MeanSize: 40_000, InterArrival: 0, Seed: 7,
	})
	if got := tracesDigest(t, cfgs); got != webDigest {
		t.Errorf("web traces digest %s, want %s", got, webDigest)
	}
}

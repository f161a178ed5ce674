package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestEmptySampler(t *testing.T) {
	var s Sampler
	if s.N() != 0 || s.Mean() != 0 || s.Quantile(0.5) != 0 {
		t.Fatal("empty sampler should return zeros")
	}
	sum := s.Summarize()
	if sum != (Summary{}) {
		t.Fatalf("empty Summarize = %+v", sum)
	}
}

func TestMean(t *testing.T) {
	var s Sampler
	for _, v := range []float64{1, 2, 3, 4} {
		s.Add(v)
	}
	if got := s.Mean(); got != 2.5 {
		t.Fatalf("Mean = %g, want 2.5", got)
	}
}

func TestQuantiles(t *testing.T) {
	var s Sampler
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {1, 100}, {0.5, 50.5}, {-0.5, 1}, {1.5, 100},
	}
	for _, tc := range cases {
		if got := s.Quantile(tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
}

func TestQuantileUnsortedInput(t *testing.T) {
	var s Sampler
	for _, v := range []float64{9, 1, 5, 3, 7} {
		s.Add(v)
	}
	if got := s.Quantile(0.5); got != 5 {
		t.Fatalf("median = %g, want 5", got)
	}
	// Adding after a quantile query must re-sort.
	s.Add(0)
	if got := s.Quantile(0); got != 0 {
		t.Fatalf("min after new add = %g, want 0", got)
	}
}

func TestSummarize(t *testing.T) {
	var s Sampler
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	sum := s.Summarize()
	if sum.N != 8 || sum.Min != 2 || sum.Max != 9 {
		t.Fatalf("Summary = %+v", sum)
	}
	if math.Abs(sum.Mean-5) > 1e-9 {
		t.Errorf("Mean = %g, want 5", sum.Mean)
	}
	// Sample stddev of this classic dataset is sqrt(32/7).
	if want := math.Sqrt(32.0 / 7.0); math.Abs(sum.StdDev-want) > 1e-9 {
		t.Errorf("StdDev = %g, want %g", sum.StdDev, want)
	}
	if sum.String() == "" {
		t.Error("String() empty")
	}
}

func TestSingleSampleStdDevZero(t *testing.T) {
	var s Sampler
	s.Add(42)
	if got := s.Summarize().StdDev; got != 0 {
		t.Fatalf("StdDev of one sample = %g", got)
	}
}

func TestReset(t *testing.T) {
	var s Sampler
	for _, v := range []float64{3, 1, 2} {
		s.Add(v)
	}
	if s.Quantile(0.5) != 2 {
		t.Fatal("setup median wrong")
	}
	s.Reset()
	if s.N() != 0 || s.Mean() != 0 || s.Quantile(0.5) != 0 {
		t.Fatal("Reset did not clear the sampler")
	}
	if got := s.Summarize(); got != (Summary{}) {
		t.Fatalf("Summarize after Reset = %+v", got)
	}
	// The sampler must be fully reusable: fresh observations only.
	s.Add(10)
	s.Add(20)
	sum := s.Summarize()
	if sum.N != 2 || sum.Mean != 15 || sum.Min != 10 || sum.Max != 20 {
		t.Fatalf("Summary after Reset+Add = %+v", sum)
	}
}

// Grow changes where the samples live, not what they sum or sort to.
func TestGrowLeavesTheSummaryAlone(t *testing.T) {
	var grown, plain Sampler
	grown.Grow(1000)
	for i := 0; i < 1000; i++ {
		v := math.Sin(float64(i)) * float64(i%17) // unordered, with repeats
		grown.Add(v)
		plain.Add(v)
	}
	if grown.N() != plain.N() || grown.Mean() != plain.Mean() {
		t.Fatalf("grown: N %d mean %v; plain: N %d mean %v", grown.N(), grown.Mean(), plain.N(), plain.Mean())
	}
	if g, p := grown.Summarize(), plain.Summarize(); g != p {
		t.Fatalf("grown summary %+v, plain %+v", g, p)
	}
}

func TestStringIncludesStdDev(t *testing.T) {
	s := Summary{N: 3, Mean: 1.5, StdDev: 0.25, P50: 1.4, P95: 2, P99: 2.1, Max: 2.2}
	got := s.String()
	for _, want := range []string{"n=3", "mean=1.5s", "stddev=0.25s", "p50=1.4s", "max=2.2s"} {
		if !strings.Contains(got, want) {
			t.Errorf("String() = %q, missing %q", got, want)
		}
	}
}

func TestPercentChange(t *testing.T) {
	if got := PercentChange(100, 150); got != 50 {
		t.Errorf("PercentChange(100,150) = %g", got)
	}
	if got := PercentChange(0, 5); got != 0 {
		t.Errorf("PercentChange(0,5) = %g, want 0", got)
	}
	if got := PercentChange(200, 100); got != -50 {
		t.Errorf("PercentChange(200,100) = %g", got)
	}
}

func TestSavingsPercent(t *testing.T) {
	if got := SavingsPercent(100, 83); math.Abs(got-17) > 1e-9 {
		t.Errorf("SavingsPercent(100,83) = %g, want 17", got)
	}
	if got := SavingsPercent(0, 5); got != 0 {
		t.Errorf("SavingsPercent(0,5) = %g, want 0", got)
	}
}

// Property: quantiles are monotone in q and bounded by [min, max].
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sampler
		for _, v := range raw {
			s.Add(float64(v))
		}
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := s.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		sum := s.Summarize()
		return sum.Min <= sum.P50 && sum.P50 <= sum.P95 && sum.P95 <= sum.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: mean is invariant to sample order and within [min,max].
func TestQuickMeanBounded(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sampler
		min, max := math.Inf(1), math.Inf(-1)
		for _, v := range raw {
			fv := float64(v)
			s.Add(fv)
			min = math.Min(min, fv)
			max = math.Max(max, fv)
		}
		m := s.Mean()
		return m >= min-1e-9 && m <= max+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAddAndSummarize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var s Sampler
		for j := 0; j < 1000; j++ {
			s.Add(float64(j % 97))
		}
		_ = s.Summarize()
	}
}

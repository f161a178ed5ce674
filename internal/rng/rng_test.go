package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterministicStream(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("stream diverged at %d: %d != %d", i, got, want)
		}
	}
}

func TestSeedChangesStream(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical outputs", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Fatalf("zero seed produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(9)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestInt63nBounds(t *testing.T) {
	r := New(11)
	for _, n := range []int64{1, 5, 1 << 40} {
		for i := 0; i < 200; i++ {
			v := r.Int63n(n)
			if v < 0 || v >= n {
				t.Fatalf("Int63n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(13)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d deviates from %g", i, c, want)
		}
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(17)
	const draws = 200000
	sum := 0.0
	for i := 0; i < draws; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("ExpFloat64 returned negative %g", v)
		}
		sum += v
	}
	mean := sum / draws
	if math.Abs(mean-1) > 0.02 {
		t.Fatalf("ExpFloat64 mean = %g, want ~1", mean)
	}
}

func TestPoissonMoments(t *testing.T) {
	for _, mu := range []float64{0.5, 1, 10, 100, 1000} {
		p := NewPoisson(New(23), mu)
		const draws = 100000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < draws; i++ {
			v := float64(p.Sample())
			if v < 0 {
				t.Fatalf("Poisson(%g) returned negative %g", mu, v)
			}
			sum += v
			sumSq += v * v
		}
		mean := sum / draws
		variance := sumSq/draws - mean*mean
		// Poisson has mean == variance == mu. Allow 5 sigma of the
		// estimator error plus 1% slack.
		tol := 5*math.Sqrt(mu/draws) + 0.01*mu
		if math.Abs(mean-mu) > tol {
			t.Errorf("Poisson(%g) mean = %g, want within %g", mu, mean, tol)
		}
		if math.Abs(variance-mu) > 0.05*mu+1 {
			t.Errorf("Poisson(%g) variance = %g, want ~%g", mu, variance, mu)
		}
	}
}

func TestPoissonEdgeCases(t *testing.T) {
	r := New(29)
	for _, mu := range []float64{0, -5} {
		p := NewPoisson(r, mu)
		if got := p.Sample(); got != 0 {
			t.Errorf("Poisson(%g) = %d, want 0", mu, got)
		}
	}
}

func TestPoissonPMFSumsToOne(t *testing.T) {
	for _, mu := range []float64{1, 10, 100, 1000} {
		sum := 0.0
		// Sum far enough into the tail for the mass to be ~1.
		upper := int(mu + 20*math.Sqrt(mu) + 20)
		for k := 0; k <= upper; k++ {
			p := PoissonPMF(mu, k)
			if p < 0 || p > 1 {
				t.Fatalf("PMF(%g,%d) = %g out of [0,1]", mu, k, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("PMF(%g) sums to %g, want 1", mu, sum)
		}
	}
}

func TestPoissonPMFMode(t *testing.T) {
	// The mode of Poisson(mu) is floor(mu); PMF should peak there.
	for _, mu := range []float64{10, 100, 1000} {
		mode := int(mu)
		pm := PoissonPMF(mu, mode)
		if PoissonPMF(mu, mode-5) > pm || PoissonPMF(mu, mode+5) > pm {
			t.Errorf("PMF(%g) not peaked at mode %d", mu, mode)
		}
	}
}

func TestPoissonPMFEdge(t *testing.T) {
	if got := PoissonPMF(0, 0); got != 1 {
		t.Errorf("PMF(0,0) = %g, want 1", got)
	}
	if got := PoissonPMF(0, 3); got != 0 {
		t.Errorf("PMF(0,3) = %g, want 0", got)
	}
	if got := PoissonPMF(5, -1); got != 0 {
		t.Errorf("PMF(5,-1) = %g, want 0", got)
	}
}

func TestZipfRanksSkewed(t *testing.T) {
	src := New(31)
	z := NewZipf(src, 100, 1.0)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[z.Sample()]++
	}
	if counts[0] <= counts[10] || counts[10] <= counts[50] {
		t.Fatalf("Zipf counts not monotonically skewed: c0=%d c10=%d c50=%d",
			counts[0], counts[10], counts[50])
	}
}

func TestZipfPanics(t *testing.T) {
	for _, tc := range []struct {
		n int
		s float64
	}{{0, 1}, {10, 0}, {-1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(%d, %g) did not panic", tc.n, tc.s)
				}
			}()
			NewZipf(New(1), tc.n, tc.s)
		}()
	}
}

// Property: Intn output is always within bounds regardless of seed and n.
func TestQuickIntnInRange(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw)%1000 + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: identical seeds give identical Poisson streams (determinism of
// the composite samplers, not just the raw generator).
func TestQuickPoissonDeterministic(t *testing.T) {
	f := func(seed uint64, muRaw uint16) bool {
		mu := float64(muRaw%2000) + 0.5
		a, b := NewPoisson(New(seed), mu), NewPoisson(New(seed), mu)
		for i := 0; i < 20; i++ {
			if a.Sample() != b.Sample() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkPoissonSmallMu(b *testing.B) {
	p := NewPoisson(New(1), 10)
	for i := 0; i < b.N; i++ {
		_ = p.Sample()
	}
}

func BenchmarkPoissonLargeMu(b *testing.B) {
	p := NewPoisson(New(1), 1000)
	for i := 0; i < b.N; i++ {
		_ = p.Sample()
	}
}

func BenchmarkZipfSample(b *testing.B) {
	z := NewZipf(New(1), 1000, 1.0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Sample()
	}
}

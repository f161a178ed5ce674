// Package metrics provides the response-time and throughput accounting
// used by the evaluation harness (Section V-C of the paper uses energy,
// state transitions, and response time as its three metrics; energy and
// transitions live with the disk model, response times live here).
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Sampler accumulates a stream of float64 observations and produces a
// Summary. It keeps all samples (evaluation runs are bounded), which makes
// exact percentiles possible.
type Sampler struct {
	samples []float64
	sum     float64
	sorted  bool
}

// Add records one observation.
func (s *Sampler) Add(v float64) {
	s.samples = append(s.samples, v)
	s.sum += v
	s.sorted = false
}

// Grow makes room for n more observations, so a caller that knows how
// many are coming allocates once instead of growing the store.
func (s *Sampler) Grow(n int) { s.samples = slices.Grow(s.samples, n) }

// N returns the number of observations.
func (s *Sampler) N() int { return len(s.samples) }

// Reset discards all accumulated observations, keeping the backing
// storage for reuse (windowed reporting: summarize, reset, keep going).
func (s *Sampler) Reset() {
	s.samples = s.samples[:0]
	s.sum = 0
	s.sorted = false
}

// Mean returns the arithmetic mean, or 0 with no samples.
func (s *Sampler) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	return s.sum / float64(len(s.samples))
}

func (s *Sampler) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.samples)
		s.sorted = true
	}
}

// Quantile returns the q-th quantile (0 <= q <= 1) by linear
// interpolation, or 0 with no samples.
func (s *Sampler) Quantile(q float64) float64 {
	if len(s.samples) == 0 {
		return 0
	}
	if q <= 0 {
		s.ensureSorted()
		return s.samples[0]
	}
	if q >= 1 {
		s.ensureSorted()
		return s.samples[len(s.samples)-1]
	}
	s.ensureSorted()
	pos := q * float64(len(s.samples)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.samples[lo]
	}
	frac := pos - float64(lo)
	return s.samples[lo]*(1-frac) + s.samples[hi]*frac
}

// Summary is a frozen snapshot of a Sampler.
type Summary struct {
	N                   int
	Mean                float64
	Min, Max            float64
	P50, P95, P99, P999 float64
	StdDev              float64
}

// Summarize computes the Summary.
func (s *Sampler) Summarize() Summary {
	if len(s.samples) == 0 {
		return Summary{}
	}
	s.ensureSorted()
	sum2 := 0.0
	mean := s.Mean()
	for _, v := range s.samples {
		d := v - mean
		sum2 += d * d
	}
	std := 0.0
	if len(s.samples) > 1 {
		std = math.Sqrt(sum2 / float64(len(s.samples)-1))
	}
	return Summary{
		N:      len(s.samples),
		Mean:   mean,
		Min:    s.samples[0],
		Max:    s.samples[len(s.samples)-1],
		P50:    s.Quantile(0.50),
		P95:    s.Quantile(0.95),
		P99:    s.Quantile(0.99),
		P999:   s.Quantile(0.999),
		StdDev: std,
	}
}

// String renders the summary compactly for logs and tables.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4gs stddev=%.4gs p50=%.4gs p95=%.4gs p99=%.4gs p999=%.4gs max=%.4gs",
		s.N, s.Mean, s.StdDev, s.P50, s.P95, s.P99, s.P999, s.Max)
}

// PercentChange returns 100*(with-without)/without — the paper's
// "response time degradation" and "energy efficiency gain" arithmetic.
// It returns 0 when without is 0.
func PercentChange(without, with float64) float64 {
	if without == 0 {
		return 0
	}
	return 100 * (with - without) / without
}

// SavingsPercent returns 100*(baseline-improved)/baseline, the paper's
// energy-savings convention. It returns 0 when baseline is 0.
func SavingsPercent(baseline, improved float64) float64 {
	if baseline == 0 {
		return 0
	}
	return 100 * (baseline - improved) / baseline
}

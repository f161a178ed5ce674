// Package workload generates the synthetic file-access traces of the
// paper's evaluation (Section V-B, Table II) and a synthetic equivalent of
// the Berkeley web trace (Section VI-D).
//
// The popularity model: the paper feeds the server "a Poisson distribution
// of file requests" with mean MU, where MU=1 "skews the file access
// patterns to a small number of files" and MU=1000 "spreads out the
// distribution of files accessed". We therefore draw the requested file id
// as Poisson(MU) folded into the file-id space (id = X mod NumFiles).
// This reproduces the published coverage crossover: prefetching the top 70
// of 1000 files captures essentially 100 % of the request mass for
// MU <= 100 but only ~74 % for MU = 1000.
package workload

import (
	"fmt"
	"math"
	"sort"

	"eevfs/internal/rng"
	"eevfs/internal/trace"
)

// SyntheticConfig describes one synthetic workload (Table II parameters).
type SyntheticConfig struct {
	NumFiles    int     // total files in the file system (paper: 1000)
	NumRequests int     // requests in the trace (paper: 1000)
	MeanSize    int64   // mean file size in bytes (paper: 1..50 MB)
	SizeSpread  float64 // sizes uniform in mean*(1±spread); 0 = fixed (paper)
	MU          float64 // Poisson popularity parameter (paper: 1..1000)
	// InterArrival is the delay in seconds inserted between consecutive
	// requests (paper: 0..1000 ms, default 700 ms).
	InterArrival float64
	// WriteFraction is the probability a request is a write (paper's
	// synthetic traces are read-only; the write path is exercised by the
	// X4 extension experiment).
	WriteFraction float64
	Seed          uint64
}

// Validate reports the first problem with the configuration.
func (c SyntheticConfig) Validate() error {
	switch {
	case c.NumFiles <= 0:
		return fmt.Errorf("workload: NumFiles must be positive, got %d", c.NumFiles)
	case c.NumRequests < 0:
		return fmt.Errorf("workload: NumRequests must be non-negative, got %d", c.NumRequests)
	case c.MeanSize <= 0:
		return fmt.Errorf("workload: MeanSize must be positive, got %d", c.MeanSize)
	case c.SizeSpread < 0 || c.SizeSpread >= 1:
		return fmt.Errorf("workload: SizeSpread must be in [0,1), got %g", c.SizeSpread)
	case c.MU < 0:
		return fmt.Errorf("workload: MU must be non-negative, got %g", c.MU)
	case c.InterArrival < 0:
		return fmt.Errorf("workload: InterArrival must be non-negative, got %g", c.InterArrival)
	case c.WriteFraction < 0 || c.WriteFraction > 1:
		return fmt.Errorf("workload: WriteFraction must be in [0,1], got %g", c.WriteFraction)
	}
	return nil
}

// DefaultSynthetic returns the paper's default parameter point: 1000 files,
// 1000 requests, 10 MB files, MU 1000, 700 ms inter-arrival, read-only.
func DefaultSynthetic() SyntheticConfig {
	return SyntheticConfig{
		NumFiles:     1000,
		NumRequests:  1000,
		MeanSize:     10 * 1e6,
		MU:           1000,
		InterArrival: 0.7,
		Seed:         1,
	}
}

// Synthetic generates a trace from the configuration.
func Synthetic(cfg SyntheticConfig) (*trace.Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	src := rng.New(cfg.Seed)

	sizes := make([]int64, cfg.NumFiles)
	for i := range sizes {
		sizes[i] = sampleSize(src, cfg.MeanSize, cfg.SizeSpread)
	}

	tr := &trace.Trace{FileSizes: sizes}
	now := 0.0
	for i := 0; i < cfg.NumRequests; i++ {
		fid := src.Poisson(cfg.MU) % cfg.NumFiles
		op := trace.Read
		if cfg.WriteFraction > 0 && src.Float64() < cfg.WriteFraction {
			op = trace.Write
		}
		tr.Records = append(tr.Records, trace.Record{
			Seq:    int64(i),
			TimeS:  now,
			Op:     op,
			FileID: fid,
			Size:   sizes[fid],
		})
		now += cfg.InterArrival
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("workload: generated invalid trace: %w", err)
	}
	return tr, nil
}

func sampleSize(src *rng.Source, mean int64, spread float64) int64 {
	if spread == 0 {
		return mean
	}
	f := 1 + spread*(2*src.Float64()-1)
	sz := int64(float64(mean) * f)
	if sz < 1 {
		sz = 1
	}
	return sz
}

// FoldedPoissonMass returns the probability that a Poisson(mu) draw folded
// by "mod n" lands on file id. Used by tests and by the prefetch-coverage
// analysis in the experiments package.
func FoldedPoissonMass(mu float64, n, id int) float64 {
	if n <= 0 || id < 0 || id >= n {
		return 0
	}
	// Sum the PMF over k = id, id+n, id+2n, ... out to mu + 20*sqrt(mu),
	// beyond which the residual mass is negligible.
	upper := int(mu + 20*math.Sqrt(mu) + 20)
	total := 0.0
	for k := id; k <= upper; k += n {
		total += rng.PoissonPMF(mu, k)
	}
	return total
}

// TopKCoverage returns the fraction of request mass captured by prefetching
// the k most popular files under the folded-Poisson(mu) model over n files.
func TopKCoverage(mu float64, n, k int) float64 {
	if k >= n {
		return 1
	}
	masses := make([]float64, n)
	for i := range masses {
		masses[i] = FoldedPoissonMass(mu, n, i)
	}
	ranks := rankDesc(masses)
	cov := 0.0
	for i := 0; i < k && i < len(ranks); i++ {
		cov += masses[ranks[i]]
	}
	return cov
}

func rankDesc(v []float64) []int {
	ids := make([]int, len(v))
	for i := range ids {
		ids[i] = i
	}
	sort.SliceStable(ids, func(a, b int) bool {
		if v[ids[a]] != v[ids[b]] {
			return v[ids[a]] > v[ids[b]]
		}
		return ids[a] < ids[b]
	})
	return ids
}

// BerkeleyWebConfig parameterizes the synthetic stand-in for the Berkeley
// web trace. The paper reports the web trace "appeared to be skewed
// towards a smaller subset of data" — small enough that with the default
// prefetch depth of 70 files every data disk stayed in standby for the
// whole trace.
type BerkeleyWebConfig struct {
	NumFiles     int     // files in the file system (1000)
	NumRequests  int     // requests to replay
	WorkingSet   int     // hot files that receive the skewed mass (<= prefetch depth for the paper's effect)
	ZipfExponent float64 // skew within the working set
	// ColdFraction sends this share of requests uniformly to files outside
	// the working set. The paper's observed trace behaves like 0; raising
	// it is the sensitivity knob used by the extension experiments.
	ColdFraction float64
	MeanSize     int64   // the paper fixed data size to 10 MB for Fig. 6
	InterArrival float64 // seconds; the paper tuned this to avoid queueing
	Seed         uint64
}

// DefaultBerkeleyWeb returns the Fig. 6 configuration.
func DefaultBerkeleyWeb() BerkeleyWebConfig {
	return BerkeleyWebConfig{
		NumFiles:     1000,
		NumRequests:  1000,
		WorkingSet:   60,
		ZipfExponent: 1.1,
		ColdFraction: 0,
		MeanSize:     10 * 1e6,
		InterArrival: 0.7,
		Seed:         1,
	}
}

// Validate reports the first problem with the configuration.
func (c BerkeleyWebConfig) Validate() error {
	switch {
	case c.NumFiles <= 0:
		return fmt.Errorf("workload: NumFiles must be positive, got %d", c.NumFiles)
	case c.NumRequests < 0:
		return fmt.Errorf("workload: NumRequests must be non-negative, got %d", c.NumRequests)
	case c.WorkingSet <= 0 || c.WorkingSet > c.NumFiles:
		return fmt.Errorf("workload: WorkingSet %d out of range (1..%d)", c.WorkingSet, c.NumFiles)
	case c.ZipfExponent <= 0:
		return fmt.Errorf("workload: ZipfExponent must be positive, got %g", c.ZipfExponent)
	case c.ColdFraction < 0 || c.ColdFraction > 1:
		return fmt.Errorf("workload: ColdFraction must be in [0,1], got %g", c.ColdFraction)
	case c.ColdFraction > 0 && c.WorkingSet == c.NumFiles:
		return fmt.Errorf("workload: ColdFraction > 0 requires files outside the working set")
	case c.MeanSize <= 0:
		return fmt.Errorf("workload: MeanSize must be positive, got %d", c.MeanSize)
	case c.InterArrival < 0:
		return fmt.Errorf("workload: InterArrival must be non-negative, got %g", c.InterArrival)
	}
	return nil
}

// BerkeleyWeb generates the web-trace-equivalent workload: read-only,
// Zipf-skewed over a small working set.
func BerkeleyWeb(cfg BerkeleyWebConfig) (*trace.Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	src := rng.New(cfg.Seed)
	zipf := rng.NewZipf(src, cfg.WorkingSet, cfg.ZipfExponent)

	sizes := make([]int64, cfg.NumFiles)
	for i := range sizes {
		sizes[i] = cfg.MeanSize
	}

	tr := &trace.Trace{FileSizes: sizes}
	now := 0.0
	for i := 0; i < cfg.NumRequests; i++ {
		var fid int
		if cfg.ColdFraction > 0 && src.Float64() < cfg.ColdFraction {
			fid = cfg.WorkingSet + src.Intn(cfg.NumFiles-cfg.WorkingSet)
		} else {
			fid = zipf.Sample()
		}
		tr.Records = append(tr.Records, trace.Record{
			Seq:    int64(i),
			TimeS:  now,
			Op:     trace.Read,
			FileID: fid,
			Size:   sizes[fid],
		})
		now += cfg.InterArrival
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("workload: generated invalid trace: %w", err)
	}
	return tr, nil
}

// Package workload generates the synthetic file-access traces of the
// paper's evaluation (Section V-B, Table II) and a synthetic equivalent of
// the Berkeley web trace (Section VI-D), both from one generator.
//
// The popularity model: the paper feeds the server "a Poisson distribution
// of file requests" with mean MU, where MU=1 "skews the file access
// patterns to a small number of files" and MU=1000 "spreads out the
// distribution of files accessed". We therefore draw the requested file id
// as Poisson(MU) folded into the file-id space (id = X mod NumFiles).
// This reproduces the published coverage crossover: prefetching the top 70
// of 1000 files captures essentially 100 % of the request mass for
// MU <= 100 but only ~74 % for MU = 1000. The web trace's model instead
// draws the id as Zipf(ZipfS) over a small working set.
package workload

import (
	"fmt"
	"math"
	"sort"

	"eevfs/internal/rng"
	"eevfs/internal/trace"
)

// SyntheticConfig describes one synthetic workload: Table II's
// parameters, plus three drift mechanisms that are off at their zero
// values and compose when on, so the online adaptive arm can be judged on
// moving popularity:
//
//   - Phase rotation: the trace is split into Phases equal epochs, and in
//     epoch p the requested id is (p*NumFiles/Phases + Poisson(MU)) mod
//     NumFiles, so the hot set's center moves NumFiles/Phases ids each
//     epoch. Phases 0 and 1 keep the hot set stationary.
//   - Flash crowd: during the window [FlashStartFrac, FlashStartFrac +
//     FlashDurFrac) of the request stream, each request is redirected
//     with probability FlashBoost to a small set of FlashFiles files at
//     the top of the id space — a sudden popularity spike no offline
//     ranking can have seen coming.
//   - Diurnal load: the inter-arrival gap is modulated sinusoidally with
//     period DiurnalPeriodSec and relative amplitude DiurnalAmplitude,
//     so the request rate swells and ebbs the way day/night traffic
//     does. This changes per-disk gap lengths without moving the hot
//     set: the inter-arrival estimator's regime, not the prefetcher's.
type SyntheticConfig struct {
	NumFiles    int     // total files in the file system (paper: 1000)
	NumRequests int     // requests in the trace (paper: 1000)
	MeanSize    int64   // mean file size in bytes (paper: 1..50 MB)
	SizeSpread  float64 // sizes uniform in mean*(1±spread); 0 = fixed (paper)
	MU          float64 // Poisson popularity parameter (paper: 1..1000)
	// WorkingSet > 0 replaces the Poisson(MU) draw with Zipf(ZipfS) over
	// ids 0..WorkingSet-1, the web trace's skew toward "a smaller subset
	// of data" (Fig. 6); MU must then be 0.
	WorkingSet int
	ZipfS      float64 // Zipf exponent, positive with WorkingSet and 0 without
	Phases     int     // popularity epochs (0 or 1 = stationary)
	// InterArrival is the delay in seconds inserted between consecutive
	// requests (paper: 0..1000 ms, default 700 ms).
	InterArrival float64
	// WriteFraction is the probability a request is a write (paper's
	// synthetic traces are read-only; the write path is exercised by the
	// X4 extension experiment).
	WriteFraction float64

	// Flash crowd (FlashDurFrac = 0 disables it).
	FlashStartFrac float64 // window start, as a fraction of the trace [0,1)
	FlashDurFrac   float64 // window length, as a fraction of the trace [0,1]
	FlashBoost     float64 // in-window redirect probability [0,1]
	FlashFiles     int     // width of the flash set (0 defaults to 8)

	// Diurnal modulation (DiurnalPeriodSec = 0 disables it).
	DiurnalPeriodSec float64 // seconds per full swell/ebb cycle
	DiurnalAmplitude float64 // relative amplitude [0,1)

	Seed uint64
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
	case c.WorkingSet < 0 || c.WorkingSet > c.NumFiles:
		return fmt.Errorf("workload: WorkingSet %d out of range (0..%d)", c.WorkingSet, c.NumFiles)
	case c.WorkingSet > 0 && c.MU > 0:
		return fmt.Errorf("workload: MU %g and WorkingSet %d both set; pick Poisson or Zipf popularity", c.MU, c.WorkingSet)
	case c.WorkingSet > 0 && c.ZipfS <= 0:
		return fmt.Errorf("workload: ZipfS must be positive with WorkingSet, got %g", c.ZipfS)
	case c.WorkingSet == 0 && c.ZipfS != 0:
		return fmt.Errorf("workload: ZipfS %g requires WorkingSet", c.ZipfS)
	case c.Phases < 0:
		return fmt.Errorf("workload: Phases must be non-negative, got %d", c.Phases)
	case c.InterArrival < 0:
		return fmt.Errorf("workload: InterArrival must be non-negative, got %g", c.InterArrival)
	case c.WriteFraction < 0 || c.WriteFraction > 1:
		return fmt.Errorf("workload: WriteFraction must be in [0,1], got %g", c.WriteFraction)
	case c.FlashStartFrac < 0 || c.FlashStartFrac >= 1:
		return fmt.Errorf("workload: FlashStartFrac must be in [0,1), got %g", c.FlashStartFrac)
	case c.FlashDurFrac < 0 || c.FlashDurFrac > 1:
		return fmt.Errorf("workload: FlashDurFrac must be in [0,1], got %g", c.FlashDurFrac)
	case c.FlashBoost < 0 || c.FlashBoost > 1:
		return fmt.Errorf("workload: FlashBoost must be in [0,1], got %g", c.FlashBoost)
	case c.FlashFiles < 0 || c.FlashFiles > c.NumFiles:
		return fmt.Errorf("workload: FlashFiles %d out of range (0..%d)", c.FlashFiles, c.NumFiles)
	case c.DiurnalPeriodSec < 0:
		return fmt.Errorf("workload: DiurnalPeriodSec must be non-negative, got %g", c.DiurnalPeriodSec)
	case c.DiurnalAmplitude < 0 || c.DiurnalAmplitude >= 1:
		return fmt.Errorf("workload: DiurnalAmplitude must be in [0,1), got %g", c.DiurnalAmplitude)
	case c.DiurnalAmplitude > 0 && c.DiurnalPeriodSec == 0:
		return fmt.Errorf("workload: DiurnalAmplitude requires DiurnalPeriodSec")
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

// DefaultDrift returns the strong-drift point the adaptive-vs-static
// golden experiment uses: 16 disjoint phase hot sets over 1600 files,
// each ~25 files wide, so a one-shot top-K prefetch is spread across
// sixteen regimes while an online policy only ever needs to track one.
func DefaultDrift() SyntheticConfig {
	return SyntheticConfig{
		NumFiles:     1600,
		NumRequests:  1000,
		MeanSize:     10 * 1e6,
		MU:           10,
		Phases:       16,
		InterArrival: 0.7,
		Seed:         1,
	}
}

// DefaultWeb returns Fig. 6's Berkeley-web-equivalent point: 1000 files
// of 10 MB, 1000 read-only requests 700 ms apart, Zipf(1.1) over a
// 60-file working set, which the default prefetch depth of 70 covers,
// so every data disk can sleep through the whole trace as in the paper.
func DefaultWeb() SyntheticConfig {
	return SyntheticConfig{
		NumFiles:     1000,
		NumRequests:  1000,
		MeanSize:     10 * 1e6,
		WorkingSet:   60,
		ZipfS:        1.1,
		InterArrival: 0.7,
		Seed:         1,
	}
}

// PhaseOf returns the popularity epoch request index i belongs to, using
// the same equal split as the generator. Tests use it to reconstruct
// per-epoch hot sets without duplicating the arithmetic.
func (c SyntheticConfig) PhaseOf(i int) int {
	if c.NumRequests == 0 || c.Phases <= 1 {
		return 0
	}
	perPhase := c.NumRequests/c.Phases + 1
	return i / perPhase
}

// flashSet returns the [lo, hi) file-id range of the flash-crowd set.
func (c SyntheticConfig) flashSet() (lo, hi int) {
	w := c.FlashFiles
	if w == 0 {
		w = 8
	}
	if w > c.NumFiles {
		w = c.NumFiles
	}
	return c.NumFiles - w, c.NumFiles
}

// inFlash reports whether request index i falls in the flash window.
func (c SyntheticConfig) inFlash(i int) bool {
	if c.FlashDurFrac == 0 || c.FlashBoost == 0 || c.NumRequests == 0 {
		return false
	}
	frac := float64(i) / float64(c.NumRequests)
	return frac >= c.FlashStartFrac && frac < c.FlashStartFrac+c.FlashDurFrac
}

// Synthetic generates a trace from the configuration. Its draws from the
// seed come in a fixed order: every file size (only when SizeSpread > 0),
// then per request the flash redirect (inside the window) or the
// phase-centred Poisson or Zipf id, then the write coin (only when
// WriteFraction > 0). The diurnal gap draws nothing, so a mechanism left
// off never shifts the draws of the others.
func Synthetic(cfg SyntheticConfig) (*trace.Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	src := rng.New(cfg.Seed)
	poisson := rng.NewPoisson(src, cfg.MU)
	popularity := poisson.Sample
	if cfg.WorkingSet > 0 {
		popularity = rng.NewZipf(src, cfg.WorkingSet, cfg.ZipfS).Sample
	}

	sizes := make([]int64, cfg.NumFiles)
	for i := range sizes {
		sizes[i] = sampleSize(src, cfg.MeanSize, cfg.SizeSpread)
	}

	tr := &trace.Trace{FileSizes: sizes, Records: make([]trace.Record, 0, cfg.NumRequests)}
	phases := max(cfg.Phases, 1)
	flashLo, flashHi := cfg.flashSet()
	now := 0.0
	for i := 0; i < cfg.NumRequests; i++ {
		var fid int
		if cfg.inFlash(i) && src.Float64() < cfg.FlashBoost {
			fid = flashLo + src.Intn(flashHi-flashLo)
		} else {
			center := cfg.PhaseOf(i) * cfg.NumFiles / phases
			fid = (center + popularity()) % cfg.NumFiles
		}
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
		gap := cfg.InterArrival
		if cfg.DiurnalPeriodSec > 0 && cfg.DiurnalAmplitude > 0 {
			gap *= 1 + cfg.DiurnalAmplitude*math.Sin(2*math.Pi*now/cfg.DiurnalPeriodSec)
		}
		now += gap
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

package workload

import (
	"fmt"
	"math"

	"eevfs/internal/rng"
	"eevfs/internal/trace"
)

// DriftConfig composes the three drift mechanisms the adaptive-policy
// evaluation exercises, each independently switchable (zero value = off):
//
//   - Phase rotation: the trace is split into Phases equal epochs, and in
//     epoch p the requested id is (p*NumFiles/Phases + Poisson(MU)) mod
//     NumFiles, so the hot set's center moves NumFiles/Phases ids each
//     epoch. Phases=1 keeps the hot set stationary.
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
//
// The generators compose: a flash crowd can interrupt a phase rotation
// under a diurnal envelope, and every combination is deterministic in
// Seed.
type DriftConfig struct {
	NumFiles     int
	NumRequests  int
	MeanSize     int64   // bytes per file (fixed, like the paper's traces)
	MU           float64 // Poisson popularity spread within a phase
	Phases       int     // popularity epochs (>= 1; 1 = stationary)
	InterArrival float64 // mean seconds between requests

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

// DefaultDrift returns the strong-drift point the adaptive-vs-static
// golden experiment uses: 16 disjoint phase hot sets over 1600 files,
// each ~25 files wide, so a one-shot top-K prefetch is spread across
// sixteen regimes while an online policy only ever needs to track one.
func DefaultDrift() DriftConfig {
	return DriftConfig{
		NumFiles:     1600,
		NumRequests:  1000,
		MeanSize:     10 * 1e6,
		MU:           10,
		Phases:       16,
		InterArrival: 0.7,
		Seed:         1,
	}
}

// Validate reports the first problem with the configuration.
func (c DriftConfig) Validate() error {
	switch {
	case c.NumFiles <= 0:
		return fmt.Errorf("workload: NumFiles must be positive, got %d", c.NumFiles)
	case c.NumRequests < 0:
		return fmt.Errorf("workload: NumRequests must be non-negative, got %d", c.NumRequests)
	case c.MeanSize <= 0:
		return fmt.Errorf("workload: MeanSize must be positive, got %d", c.MeanSize)
	case c.MU < 0:
		return fmt.Errorf("workload: MU must be non-negative, got %g", c.MU)
	case c.Phases <= 0:
		return fmt.Errorf("workload: Phases must be positive, got %d", c.Phases)
	case c.InterArrival < 0:
		return fmt.Errorf("workload: InterArrival must be non-negative, got %g", c.InterArrival)
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

// PhaseOf returns the popularity epoch request index i belongs to, using
// the same equal split as the generator. Tests use it to reconstruct
// per-epoch hot sets without duplicating the arithmetic.
func (c DriftConfig) PhaseOf(i int) int {
	if c.NumRequests == 0 || c.Phases <= 1 {
		return 0
	}
	perPhase := c.NumRequests/c.Phases + 1
	return i / perPhase
}

// flashSet returns the [lo, hi) file-id range of the flash-crowd set.
func (c DriftConfig) flashSet() (lo, hi int) {
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
func (c DriftConfig) inFlash(i int) bool {
	if c.FlashDurFrac == 0 || c.FlashBoost == 0 || c.NumRequests == 0 {
		return false
	}
	frac := float64(i) / float64(c.NumRequests)
	return frac >= c.FlashStartFrac && frac < c.FlashStartFrac+c.FlashDurFrac
}

// Drift generates a trace from the composed configuration.
func Drift(cfg DriftConfig) (*trace.Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	src := rng.New(cfg.Seed)
	sizes := make([]int64, cfg.NumFiles)
	for i := range sizes {
		sizes[i] = cfg.MeanSize
	}
	tr := &trace.Trace{FileSizes: sizes}
	flashLo, flashHi := cfg.flashSet()
	now := 0.0
	for i := 0; i < cfg.NumRequests; i++ {
		var fid int
		if cfg.inFlash(i) && src.Float64() < cfg.FlashBoost {
			fid = flashLo + src.Intn(flashHi-flashLo)
		} else {
			center := cfg.PhaseOf(i) * cfg.NumFiles / cfg.Phases
			fid = (center + src.Poisson(cfg.MU)) % cfg.NumFiles
		}
		tr.Records = append(tr.Records, trace.Record{
			Seq:    int64(i),
			TimeS:  now,
			Op:     trace.Read,
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

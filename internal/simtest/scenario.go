// Package simtest is the deterministic simulation-testing (DST) harness:
// it generates randomized cluster scenarios from a seed, runs them through
// the discrete-event simulator (and, for live scenarios, the real
// fs.Server/Node TCP stack), checks a library of invariant oracles against
// the results, and — when an oracle fails — shrinks the scenario to a
// minimal reproducer that replays from a one-line command.
//
// The paper's claims (Section VI) are universally quantified: energy
// totals, transition counts, and response times must stay consistent for
// *any* mix of MU, inter-arrival delay, prefetch count, and faults. Hand
// written tests pin a handful of points in that space; this harness
// searches it mechanically.
//
// Everything on the simulator path is wall-clock free: a Scenario is a
// pure value, the workload is derived from Scenario.Seed, and the
// simulator runs on simtime — so a seed replays bit-identically, forever
// (enforced by the determinism oracle and wallclock_test.go).
package simtest

import (
	"math"

	"eevfs/internal/adaptive"
	"eevfs/internal/cluster"
	"eevfs/internal/disk"
	"eevfs/internal/rng"
	"eevfs/internal/trace"
	"eevfs/internal/workload"
)

// Scenario is one fully-specified simulated deployment + workload. It is
// a plain value: two equal Scenarios produce bit-identical runs. The
// fields use integral units (KB, MB, ms, percent) where possible so the
// textual repro encoding round-trips exactly.
type Scenario struct {
	// Seed is the generator seed: it determined every field below and
	// also seeds the workload. After shrinking, the fields no longer
	// match Generate(Seed) — the repro string carries them explicitly.
	Seed uint64

	// Cluster shape.
	NodeCount   int // storage nodes
	Type2Count  int // trailing nodes that use Type 2 links/disks (Table I)
	DataDisks   int // data disks per node (uniform, as the sim requires)
	BufferDisks int // buffer disks per node

	// Policy and its options (cluster.Config mirror).
	Policy           cluster.Policy
	PrefetchCount    int
	WriteBuffer      bool
	Concentrate      bool
	StripeChunkKB    int
	ReprefetchEvery  int
	IdleThresholdSec float64
	BufferCapMB      int // 0 = drive-capacity bound
	RouteLatencyMS   float64

	// Workload (workload.SyntheticConfig mirror).
	Files          int
	Requests       int
	MeanSizeKB     int
	SizeSpreadPct  int
	MU             float64
	InterArrivalMS float64
	WritePct       int

	// Drift dimensions (workload.SyntheticConfig's drift mechanisms; all
	// zero = a stationary workload). Adaptive scenarios always drift,
	// with DriftPhases=0 meaning one stationary phase.
	DriftPhases int // popularity epochs
	FlashPct    int // flash-crowd redirect probability, percent (0 = off)
	DiurnalPct  int // diurnal inter-arrival amplitude, percent (0 = off)

	// Inject names a test-only invariant breaker the harness applies to
	// the run's artifacts before the oracles see them (see harness.go).
	// It exists to prove the oracle+shrinker pipeline actually catches
	// and minimizes violations; "" (the default) runs clean.
	Inject string
}

// Test-only invariant breakers accepted in Scenario.Inject.
const (
	// InjectReadStandby adds a phantom disk to the journal whose
	// timeline legally spins down to standby and then services a read
	// without waking — the canonical power-state violation.
	InjectReadStandby = "read-standby"
	// InjectEnergySkew adds a joule to Result.DiskEnergyJ without
	// touching the per-disk stats, breaking energy conservation.
	InjectEnergySkew = "energy-skew"
	// InjectBadEstimator breaks the adaptive arm's estimator before the
	// run: it claims every inter-arrival gap is profitably long and
	// bypasses the transition budget (adaptive.Params.Mispredict), so
	// the disks thrash — which the adaptive-transition-budget oracle
	// must catch. Only meaningful on Adaptive scenarios.
	InjectBadEstimator = "bad-estimator"
)

// Generate derives a scenario from a seed. Every generated scenario is
// valid by construction (Valid() == nil): the generator draws one policy
// and then only the options cluster.Config accepts with it (reprefetch
// only on the threshold-sleeping PF arm, nothing but the policy itself on
// the adaptive arm), so the random walk never leaves the legal
// configuration space.
func Generate(seed uint64) Scenario {
	src := rng.New(seed)
	s := Scenario{Seed: seed}

	// Shape: small clusters keep each run in the low milliseconds while
	// still covering heterogeneity and multiple spindles. A fifth of the
	// clusters lose a prefix of their nodes: the simulator only ever sees
	// the nodes left, so the draw shrinks the cluster (and its Type 2
	// tail) in place.
	s.NodeCount = 1 + src.Intn(6)
	s.Type2Count = src.Intn(s.NodeCount + 1)
	s.DataDisks = 1 + src.Intn(3)
	s.BufferDisks = 1 + src.Intn(2)
	if s.NodeCount > 1 && src.Float64() < 0.2 {
		s.NodeCount -= 1 + src.Intn(s.NodeCount-1)
		s.Type2Count = min(s.Type2Count, s.NodeCount)
	}
	s.IdleThresholdSec = []float64{1, 2, 5, 10}[src.Intn(4)]
	s.RouteLatencyMS = float64(1+src.Intn(5)) / 2 // 0.5..2.5 ms

	// Policy family: mostly PF (the system under test; its hinted and
	// prewake arms are drawn below), with the online adaptive arm, MAID,
	// and the DPM/NPF baselines mixed in.
	switch p := src.Float64(); {
	case p < 0.55:
		s.Policy = cluster.Prefetch
	case p < 0.65:
		s.Policy = cluster.MAID
	case p < 0.90:
		s.Policy = cluster.Adaptive
	case src.Float64() < 0.5: // drawn only when no case above matched
		s.Policy = cluster.ThresholdDPM
	}
	if s.Policy == cluster.Adaptive {
		// Drift dimensions: phase rotation most of the time, flash
		// crowds and diurnal load each mixed into a slice of the space.
		if src.Float64() < 0.8 {
			s.DriftPhases = 1 + src.Intn(12)
		}
		if src.Float64() < 0.35 {
			s.FlashPct = 20 + src.Intn(61)
		}
		if src.Float64() < 0.35 {
			s.DiurnalPct = 20 + src.Intn(61)
		}
	}
	if s.Policy == cluster.Prefetch {
		s.PrefetchCount = 1 + src.Intn(120)
		if src.Float64() < 0.25 {
			s.ReprefetchEvery = 10 + src.Intn(60)
		} else if src.Float64() < 0.6 {
			s.Policy = cluster.PrefetchHinted
			if src.Float64() < 0.4 {
				s.Policy = cluster.PrefetchPrewake
			}
		}
		s.WriteBuffer = src.Float64() < 0.35
	}
	s.Concentrate = src.Float64() < 0.15
	if src.Float64() < 0.25 {
		s.StripeChunkKB = []int{256, 1024, 4096}[src.Intn(3)]
	}
	if src.Float64() < 0.3 {
		s.BufferCapMB = 64 + src.Intn(512)
	}

	// Workload: Table II ranges, scaled down ~5x to keep runs quick.
	s.Files = 10 + src.Intn(291)
	s.Requests = 20 + src.Intn(281)
	s.MeanSizeKB = 256 + src.Intn(8193)
	if src.Float64() < 0.4 {
		s.SizeSpreadPct = src.Intn(60)
	}
	// MU log-uniform over [1, 2000]: low MU concentrates accesses (the
	// fully-covered regime), high MU spreads them (the miss regime).
	s.MU = math.Exp(src.Float64() * math.Log(2000))
	if src.Float64() < 0.9 {
		s.InterArrivalMS = float64(50 + src.Intn(951)) // 50..1000 ms
	}
	if src.Float64() < 0.3 {
		s.WritePct = 1 + src.Intn(40)
	}

	// A slice of the space is steered into the paper's fully-covered
	// regime (low MU, long delays, read-only, small files) so the
	// PF-dominates-NPF oracle is exercised rather than always gated off.
	if s.Policy.Prefetches() && src.Float64() < 0.3 {
		s.WritePct = 0
		s.MeanSizeKB = 256 + src.Intn(1793) // <= ~2 MB
		s.MU = 1 + float64(src.Intn(10))
		s.InterArrivalMS = float64(500 + src.Intn(501))
		s.Requests = 150 + src.Intn(151)
		s.PrefetchCount = 40 + src.Intn(81)
	}
	if s.Policy == cluster.Adaptive {
		// The adaptive arm is standalone (cluster.Config.Validate) and
		// its drift workload is read-only.
		s.Concentrate = false
		s.WritePct = 0
	}
	return s
}

// GenerateDrift derives an adaptive-arm drift scenario from a seed: the
// steered generator behind the `eevfssim -drift` battery and the nightly
// soak job. Every scenario runs the online policy on a drift workload so
// the adaptive oracles are exercised on every single iteration instead
// of the ~25 % of Generate's space that lands on the adaptive branch.
func GenerateDrift(seed uint64) Scenario {
	s := Generate(seed)
	s.Policy = cluster.Adaptive
	s.PrefetchCount, s.ReprefetchEvery, s.WritePct = 0, 0, 0
	s.WriteBuffer, s.Concentrate = false, false
	// Re-draw the drift dimensions from a derived stream so they are
	// present regardless of which policy branch Generate took.
	src := rng.New(seed ^ 0x9E3779B97F4A7C15)
	s.DriftPhases = 1 + src.Intn(12)
	if src.Float64() < 0.4 {
		s.FlashPct = 20 + src.Intn(61)
	}
	if src.Float64() < 0.4 {
		s.DiurnalPct = 20 + src.Intn(61)
	}
	// Drift needs enough requests for the phases to be visible.
	if s.Requests < 80 {
		s.Requests += 80
	}
	return s
}

// NodeConfigs returns the configs of the nodes ClusterConfig simulates.
// Index i here matches the "node<i>/..." disk names in the run's journal
// and Result.PerDisk, which the oracles rely on to find each disk's power
// model.
func (s Scenario) NodeConfigs() []cluster.NodeConfig {
	var nodes []cluster.NodeConfig
	for i := 0; i < s.NodeCount; i++ {
		nc := cluster.NodeConfig{
			LinkMbps:    1000,
			DataModel:   disk.ModelType1,
			BufferModel: disk.ModelType1,
			DataDisks:   s.DataDisks,
			BufferDisks: s.BufferDisks,
		}
		if i >= s.NodeCount-s.Type2Count {
			nc.LinkMbps = 100
			nc.DataModel = disk.ModelType2
			nc.BufferModel = disk.ModelType2
		}
		nodes = append(nodes, nc)
	}
	return nodes
}

// ClusterConfig expands the scenario into the simulator configuration.
func (s Scenario) ClusterConfig() cluster.Config {
	cfg := cluster.Config{
		Nodes:               s.NodeConfigs(),
		NodeBasePowerW:      55,
		IdleThresholdSec:    s.IdleThresholdSec,
		Policy:              s.Policy,
		PrefetchCount:       s.PrefetchCount,
		WriteBuffer:         s.WriteBuffer,
		Concentrate:         s.Concentrate,
		StripeChunkBytes:    int64(s.StripeChunkKB) * 1024,
		ReprefetchEvery:     s.ReprefetchEvery,
		BufferCapacityBytes: int64(s.BufferCapMB) * 1e6,
		RouteLatencySec:     s.RouteLatencyMS / 1000,
	}
	if s.Policy == cluster.Adaptive && s.Inject == InjectBadEstimator {
		// The bad-estimator injection is pre-run (it breaks the policy,
		// not the artifacts): the controller claims every gap profits
		// and ignores its transition budget.
		p := adaptive.Defaults()
		p.Mispredict = true
		cfg.AdaptiveParams = &p
	}
	return cfg
}

// UsesDrift reports whether the scenario's workload is a drifting one.
// Adaptive scenarios always drift, with DriftPhases=0 meaning one
// stationary phase.
func (s Scenario) UsesDrift() bool {
	return s.Policy == cluster.Adaptive || s.DriftPhases > 0 || s.FlashPct > 0 || s.DiurnalPct > 0
}

// BuildTrace generates the scenario's workload trace.
func (s Scenario) BuildTrace() (*trace.Trace, error) {
	return workload.Synthetic(s.WorkloadConfig())
}

// WorkloadConfig expands the scenario into the synthetic-trace generator
// configuration. The workload shares the scenario seed. A drifting
// workload has fixed sizes and no writes, whatever SizeSpreadPct and
// WritePct say, so every repro string keeps replaying the trace it was
// recorded with.
func (s Scenario) WorkloadConfig() workload.SyntheticConfig {
	w := workload.SyntheticConfig{
		NumFiles:      s.Files,
		NumRequests:   s.Requests,
		MeanSize:      int64(s.MeanSizeKB) * 1000,
		SizeSpread:    float64(s.SizeSpreadPct) / 100,
		MU:            s.MU,
		Phases:        s.DriftPhases,
		InterArrival:  s.InterArrivalMS / 1000,
		WriteFraction: float64(s.WritePct) / 100,
		Seed:          s.Seed,
	}
	if s.UsesDrift() {
		w.SizeSpread, w.WriteFraction = 0, 0
	}
	if s.FlashPct > 0 {
		w.FlashStartFrac = 0.4
		w.FlashDurFrac = 0.25
		w.FlashBoost = float64(s.FlashPct) / 100
		w.FlashFiles = 8
	}
	if s.DiurnalPct > 0 {
		w.DiurnalPeriodSec = 60
		w.DiurnalAmplitude = float64(s.DiurnalPct) / 100
	}
	return w
}

// Valid reports whether the scenario expands to configurations the
// simulator accepts. Generate always produces valid scenarios; the
// shrinker uses Valid to discard reduction candidates that would leave
// the legal space.
func (s Scenario) Valid() error {
	if err := s.ClusterConfig().Validate(); err != nil {
		return err
	}
	return s.WorkloadConfig().Validate()
}

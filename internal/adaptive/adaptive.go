// Package adaptive implements the online power-management policy arm:
// per-disk exponentially-weighted inter-arrival estimation, an adapted
// spin-down threshold with a competitive floor, a hard per-window
// transition budget, and a churn detector that triggers re-prefetching
// when the observed hot set diverges from the buffered one.
//
// The paper's PRE-BUD predictor (Section IV) uses static thresholds and
// fixed reprefetch epochs. This package replaces both with online
// estimates, following the energy-aware DBMS line of work: track
// inter-arrival gaps live, sleep only when the estimate says the gap
// will pay back the transition overhead, and bound the worst case —
// a mispredicting estimator can never thrash a disk past its
// transition budget, and the spin-down threshold never drops below the
// break-even point (the classic two-competitive rent-or-buy floor).
//
// Everything here is driven by virtual time passed in as float64
// seconds: the package is deterministic and wall-clock free, so the
// cluster simulator, the simtest oracles, and the real storage path can
// all share it.
package adaptive

import (
	"fmt"
	"slices"

	"eevfs/internal/disk"
)

// Params tunes the online controller. The zero value is invalid; start
// from Defaults.
type Params struct {
	// Alpha is the EWMA weight of the newest inter-arrival gap (0,1].
	// Larger values adapt faster and forget faster.
	Alpha float64

	// SafetyFactor (kappa) scales every profitability comparison: a disk
	// sleeps through an estimated gap only when the estimate is at least
	// SafetyFactor times the payback dwell, so an estimator that is off
	// by up to that factor still never predicts a losing sleep.
	SafetyFactor float64

	// ColdFloorSec is the idle time after which a disk with no evidence
	// of profitable gaps (a short-gap estimate, or no observed gaps at
	// all) is declared cold and sent to standby anyway — the regime-
	// change fallback that lets a disk whose hot set moved away sleep
	// even though its estimate is stale. Zero derives
	// SafetyFactor^2 x break-even from the disk model.
	ColdFloorSec float64

	// BudgetWindowSec and BudgetPerWindow cap power transitions: at most
	// BudgetPerWindow spin-downs per disk within any sliding window of
	// BudgetWindowSec seconds. This is the hard anti-thrash bound — no
	// estimate, however wrong, can exceed it.
	BudgetWindowSec float64
	BudgetPerWindow int

	// ChurnWindow is how many recent accesses the hot-set divergence
	// detector remembers.
	ChurnWindow int
	// ChurnThreshold is the buffer-miss fraction over the window above
	// which the prefetched set is considered stale and a re-prefetch
	// fires (replacing the fixed reprefetch epoch).
	ChurnThreshold float64
	// ChurnCooldown is the minimum number of accesses between two
	// re-prefetch triggers.
	ChurnCooldown int

	// MinFetchHits is the windowed access count a file needs before it
	// is worth fetching into the buffer disk.
	MinFetchHits int
	// MaxFetchPerRecompute caps how many files one re-prefetch may
	// fetch.
	MaxFetchPerRecompute int
	// FetchSafety requires the realized savings bank to hold that many
	// times a fetch's estimated energy cost before the fetch is allowed,
	// so speculative fetching can only ever spend savings the policy has
	// already banked.
	FetchSafety float64

	// Mispredict is a test-only fault: the estimator claims every gap is
	// profitably long and the transition budget is ignored. The simtest
	// battery injects it to prove the transition-budget oracle catches a
	// broken estimator.
	Mispredict bool
}

// Defaults returns the tuned production parameter set.
func Defaults() Params {
	return Params{
		Alpha:                0.4,
		SafetyFactor:         1.5,
		BudgetWindowSec:      120,
		BudgetPerWindow:      5,
		ChurnWindow:          96,
		ChurnThreshold:       0.3,
		ChurnCooldown:        12,
		MinFetchHits:         1,
		MaxFetchPerRecompute: 16,
		FetchSafety:          2,
	}
}

// Validate reports the first problem with the parameter set.
func (p Params) Validate() error {
	switch {
	case p.Alpha <= 0 || p.Alpha > 1:
		return fmt.Errorf("adaptive: Alpha %g outside (0,1]", p.Alpha)
	case p.SafetyFactor < 1:
		return fmt.Errorf("adaptive: SafetyFactor %g below 1", p.SafetyFactor)
	case p.ColdFloorSec < 0:
		return fmt.Errorf("adaptive: negative ColdFloorSec")
	case p.BudgetWindowSec <= 0:
		return fmt.Errorf("adaptive: BudgetWindowSec must be positive")
	case p.BudgetPerWindow < 1:
		return fmt.Errorf("adaptive: BudgetPerWindow must be at least 1")
	case p.ChurnWindow < 1:
		return fmt.Errorf("adaptive: ChurnWindow must be at least 1")
	case p.ChurnThreshold <= 0 || p.ChurnThreshold > 1:
		return fmt.Errorf("adaptive: ChurnThreshold %g outside (0,1]", p.ChurnThreshold)
	case p.ChurnCooldown < 0:
		return fmt.Errorf("adaptive: negative ChurnCooldown")
	case p.MinFetchHits < 1:
		return fmt.Errorf("adaptive: MinFetchHits must be at least 1")
	case p.MaxFetchPerRecompute < 0:
		return fmt.Errorf("adaptive: negative MaxFetchPerRecompute")
	case p.FetchSafety < 1:
		return fmt.Errorf("adaptive: FetchSafety %g below 1", p.FetchSafety)
	}
	return nil
}

// PaybackDwellSec returns the standby dwell needed before a sleep/wake
// cycle beats having idled through the same span:
//
//	PIdle*(down+dwell+up) >= SpinDownJ + PStandby*dwell + SpinUpJ
//
// solved for dwell. It is the profitability bar every sleep decision is
// measured against (Model.BreakEvenSec is the same equation expressed as
// a whole-gap length).
func PaybackDwellSec(m disk.Model) float64 {
	num := m.SpinDownJ + m.SpinUpJ - m.PIdle*(m.SpinDownSec+m.SpinUpSec)
	den := m.PIdle - m.PStandby
	d := num / den
	if d < 0 {
		return 0
	}
	return d
}

// diskState is the per-disk estimator plus transition-budget ledger.
type diskState struct {
	lastArrival float64
	ewmaGap     float64
	seen        bool // any arrival observed
	haveGap     bool // at least one full gap observed
	spinDowns   []float64
}

// Controller holds the online state for a set of disks. It is not safe
// for concurrent use; callers in concurrent contexts (the real storage
// path) must wrap it in their own lock. The simulator is single-
// threaded per run.
type Controller struct {
	p     Params
	disks []diskState
}

// NewController creates a controller for n disks. It panics on invalid
// params (construction-time programming error, mirroring disk.New).
func NewController(p Params, n int) *Controller {
	if err := p.Validate(); err != nil {
		panic(err.Error())
	}
	return &Controller{p: p, disks: make([]diskState, n)}
}

// Observe feeds one foreground arrival on disk i at virtual time now.
func (c *Controller) Observe(i int, now float64) {
	d := &c.disks[i]
	if d.seen {
		gap := now - d.lastArrival
		if gap >= 0 {
			if d.haveGap {
				d.ewmaGap = c.p.Alpha*gap + (1-c.p.Alpha)*d.ewmaGap
			} else {
				d.ewmaGap = gap
				d.haveGap = true
			}
		}
	}
	d.seen = true
	d.lastArrival = now
}

// ThresholdSec returns the adapted spin-down threshold for disk i: how
// long the disk must sit idle before the controller sends it to
// standby. idleThreshold is the configured policy floor and m the
// disk's model.
//
// Three regimes, all floored at the model's break-even gap (sleeping
// earlier than break-even can never pay, the rent-or-buy bound):
//
//   - Confident-long: the gap estimate exceeds SafetyFactor times the
//     whole threshold-plus-payback span, so a typical gap pays for the
//     sleep even after waiting out the base threshold — and still pays
//     if the estimate is off by the safety factor. Sleep at the base
//     threshold: this is where the adapted policy earns its savings,
//     matching a well-tuned static threshold whenever arrivals really
//     are sparse.
//
//   - Mid-range: the gap estimate clears SafetyFactor times the payback
//     dwell, but not by enough to absorb the base wait too. The
//     threshold is SafetyFactor times the estimate — regular traffic
//     whose gaps match the estimate never triggers a sleep at all, and
//     an episode that does sleep has already outlived its prediction:
//     the cost of any such episode stays within a constant factor of
//     the offline optimum (idle through the estimate, then pay one
//     cycle), the classic competitive rent-or-buy hedge.
//
//   - Cold fallback: the estimate says gaps are short (or nothing was
//     ever observed), so routine sleeping would thrash. Only after the
//     disk has idled SafetyFactor^2 past both the estimate and the
//     payback dwell — and past ColdFloorSec — is the estimate declared
//     stale (the hot set moved away) and the disk slept anyway.
func (c *Controller) ThresholdSec(i int, idleThreshold float64, m disk.Model) float64 {
	base := idleThreshold
	if be := m.BreakEvenSec(); be > base {
		base = be
	}
	if c.p.Mispredict {
		return base // claims every gap profits: sleep at the bare floor
	}
	d := &c.disks[i]
	payback := PaybackDwellSec(m)
	if d.haveGap && d.ewmaGap >= c.p.SafetyFactor*(base+payback) {
		return base
	}
	if d.haveGap && d.ewmaGap >= c.p.SafetyFactor*payback {
		if th := c.p.SafetyFactor * d.ewmaGap; th > base {
			return th
		}
		return base
	}
	k2 := c.p.SafetyFactor * c.p.SafetyFactor
	cold := c.p.ColdFloorSec
	if cold == 0 {
		cold = k2 * m.BreakEvenSec()
	}
	th := base
	if v := k2 * d.ewmaGap; v > th {
		th = v
	}
	if v := k2 * payback; v > th {
		th = v
	}
	if cold > th {
		th = cold
	}
	return th
}

// AllowSpinDown reports whether disk i may spin down at now without
// exceeding the per-window transition budget.
func (c *Controller) AllowSpinDown(i int, now float64) bool {
	if c.p.Mispredict {
		return true // the injected fault bypasses the budget
	}
	c.pruneBudget(i, now)
	return len(c.disks[i].spinDowns) < c.p.BudgetPerWindow
}

// NoteSpinDown records a spin-down initiated on disk i at now.
func (c *Controller) NoteSpinDown(i int, now float64) {
	c.pruneBudget(i, now)
	d := &c.disks[i]
	d.spinDowns = append(d.spinDowns, now)
}

// NextBudgetFreeAt returns the earliest time at or after now at which
// disk i's budget admits another spin-down.
func (c *Controller) NextBudgetFreeAt(i int, now float64) float64 {
	if c.AllowSpinDown(i, now) {
		return now
	}
	d := &c.disks[i]
	overflow := len(d.spinDowns) - c.p.BudgetPerWindow + 1
	return d.spinDowns[overflow-1] + c.p.BudgetWindowSec
}

// pruneBudget drops spin-down timestamps that have aged out of the
// sliding window (a spin-down at t constrains decisions strictly before
// t + BudgetWindowSec).
func (c *Controller) pruneBudget(i int, now float64) {
	d := &c.disks[i]
	keep := d.spinDowns
	for len(keep) > 0 && keep[0]+c.p.BudgetWindowSec <= now {
		keep = keep[1:]
	}
	d.spinDowns = keep
}

// Churn detects hot-set divergence: it remembers whether each of the
// last ChurnWindow accesses could be served from the buffer disks, and
// fires when the miss fraction crosses the threshold.
type Churn struct {
	p      Params
	fids   []int
	hits   []bool
	filled int
	idx    int
	misses int
	since  int // accesses since the last trigger
}

// NewChurn creates a detector. It panics on invalid params.
func NewChurn(p Params) *Churn {
	if err := p.Validate(); err != nil {
		panic(err.Error())
	}
	return &Churn{
		p:     p,
		fids:  make([]int, p.ChurnWindow),
		hits:  make([]bool, p.ChurnWindow),
		since: p.ChurnCooldown, // allow an immediate first trigger
	}
}

// Observe records one read access (hit = served from a buffer disk) and
// reports whether a re-prefetch should fire now.
func (c *Churn) Observe(fid int, hit bool) bool {
	if c.filled == len(c.fids) && !c.hits[c.idx] {
		c.misses--
	}
	c.fids[c.idx] = fid
	c.hits[c.idx] = hit
	if !hit {
		c.misses++
	}
	c.idx = (c.idx + 1) % len(c.fids)
	if c.filled < len(c.fids) {
		c.filled++
	}
	c.since++
	if c.filled < len(c.fids) || c.since < c.p.ChurnCooldown {
		return false
	}
	return float64(c.misses) > c.p.ChurnThreshold*float64(c.filled)
}

// Reset marks a re-prefetch as done, starting the cooldown. The access
// window is kept: popularity context survives the recompute.
func (c *Churn) Reset() { c.since = 0 }

// Rescore relabels every access in the window against a new buffered
// set. After a re-prefetch the window's hit/miss labels are stale — they
// were scored against the set the recompute just replaced — and leaving
// them would refire the detector on evidence it already acted on.
func (c *Churn) Rescore(buffered func(fid int) bool) {
	c.misses = 0
	for i := 0; i < c.filled; i++ {
		c.hits[i] = buffered(c.fids[i])
		if !c.hits[i] {
			c.misses++
		}
	}
}

// Window returns the file ids of the accesses in the current window, one
// per access, in a slice the caller owns.
func (c *Churn) Window() []int { return slices.Clone(c.fids[:c.filled]) }

// MissRate returns the miss fraction over the current window (0 when
// the window is empty).
func (c *Churn) MissRate() float64 {
	if c.filled == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.filled)
}

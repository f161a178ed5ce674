package adaptive

import (
	"math"
	"slices"
	"testing"

	"eevfs/internal/disk"
)

func almost(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestDefaultsValid(t *testing.T) {
	if err := Defaults().Validate(); err != nil {
		t.Fatalf("Defaults rejected: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	mods := map[string]func(*Params){
		"alpha zero":         func(p *Params) { p.Alpha = 0 },
		"alpha over one":     func(p *Params) { p.Alpha = 1.1 },
		"safety below one":   func(p *Params) { p.SafetyFactor = 0.9 },
		"negative coldfloor": func(p *Params) { p.ColdFloorSec = -1 },
		"zero window":        func(p *Params) { p.BudgetWindowSec = 0 },
		"zero budget":        func(p *Params) { p.BudgetPerWindow = 0 },
		"zero churn window":  func(p *Params) { p.ChurnWindow = 0 },
		"zero threshold":     func(p *Params) { p.ChurnThreshold = 0 },
		"threshold over 1":   func(p *Params) { p.ChurnThreshold = 1.5 },
		"negative cooldown":  func(p *Params) { p.ChurnCooldown = -1 },
		"zero fetch hits":    func(p *Params) { p.MinFetchHits = 0 },
		"negative fetch cap": func(p *Params) { p.MaxFetchPerRecompute = -1 },
		"fetch safety low":   func(p *Params) { p.FetchSafety = 0.5 },
	}
	for name, mod := range mods {
		p := Defaults()
		mod(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid parameter set", name)
		}
	}
}

func TestNewControllerPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewController accepted invalid params")
		}
	}()
	NewController(Params{}, 1)
}

// TestPaybackDwell checks the dwell algebra against the disk model's own
// break-even: a gap of exactly SpinDownSec + dwell + SpinUpSec must cost
// the same slept as idled, which is what BreakEvenSec expresses before
// its transition-time floor.
func TestPaybackDwell(t *testing.T) {
	m := disk.ModelType1
	d := PaybackDwellSec(m)
	if d <= 0 {
		t.Fatalf("Type 1 payback dwell = %g, want positive", d)
	}
	idled := m.PIdle * (m.SpinDownSec + d + m.SpinUpSec)
	slept := m.SpinDownJ + m.PStandby*d + m.SpinUpJ
	if !almost(idled, slept) {
		t.Fatalf("dwell %g does not balance: idle %g J vs sleep %g J", d, idled, slept)
	}
	// A model whose transitions are free pays back instantly.
	free := m
	free.SpinDownJ, free.SpinUpJ = 0, 0
	if got := PaybackDwellSec(free); got != 0 {
		t.Fatalf("free transitions should need no dwell, got %g", got)
	}
}

func TestObserveEWMA(t *testing.T) {
	p := Defaults()
	p.Alpha = 0.5
	c := NewController(p, 1)
	if got := c.disks[0].ewmaGap; got != 0 {
		t.Fatalf("estimate before any arrival = %g, want 0", got)
	}
	c.Observe(0, 10) // first arrival: no gap yet
	c.Observe(0, 14) // gap 4 -> ewma 4
	if got := c.disks[0].ewmaGap; !almost(got, 4) {
		t.Fatalf("after one gap, estimate = %g, want 4", got)
	}
	c.Observe(0, 22) // gap 8 -> ewma 0.5*8 + 0.5*4 = 6
	if got := c.disks[0].ewmaGap; !almost(got, 6) {
		t.Fatalf("after two gaps, estimate = %g, want 6", got)
	}
}

func TestThresholdRegimes(t *testing.T) {
	m := disk.ModelType1
	base := m.BreakEvenSec() // idleThreshold below break-even -> floor wins
	payback := PaybackDwellSec(m)
	p := Defaults()
	c := NewController(p, 1)

	// No gap observed: cold fallback, kappa^2 x break-even.
	cold := p.SafetyFactor * p.SafetyFactor * m.BreakEvenSec()
	if got := c.ThresholdSec(0, 1, m); !almost(got, cold) {
		t.Fatalf("cold threshold = %g, want %g", got, cold)
	}

	// Confident-long: estimate clears kappa*(base+payback) -> sleep at base.
	long := p.SafetyFactor*(base+payback) + 1
	c.Observe(0, 0)
	c.Observe(0, long) // ewma = long
	if got := c.ThresholdSec(0, 1, m); !almost(got, base) {
		t.Fatalf("confident-long threshold = %g, want base %g", got, base)
	}

	// Mid-range: estimate clears kappa*payback but not the long bar ->
	// threshold tracks kappa*estimate (floored at base).
	mid := p.SafetyFactor*payback + 0.2
	c2 := NewController(p, 1)
	c2.Observe(0, 0)
	c2.Observe(0, mid)
	want := p.SafetyFactor * mid
	if want < base {
		want = base
	}
	if got := c2.ThresholdSec(0, 1, m); !almost(got, want) {
		t.Fatalf("mid-range threshold = %g, want %g", got, want)
	}

	// Short-gap: estimate below kappa*payback -> cold fallback again,
	// never below base.
	c3 := NewController(p, 1)
	c3.Observe(0, 0)
	c3.Observe(0, 0.1)
	got := c3.ThresholdSec(0, 1, m)
	if got < base {
		t.Fatalf("short-gap threshold %g dropped below break-even %g", got, base)
	}
	if got < cold-1e-9 {
		t.Fatalf("short-gap threshold %g below cold floor %g", got, cold)
	}

	// Mispredict claims everything profits: bare base.
	pm := p
	pm.Mispredict = true
	c4 := NewController(pm, 1)
	c4.Observe(0, 0)
	c4.Observe(0, 0.1)
	if got := c4.ThresholdSec(0, 1, m); !almost(got, base) {
		t.Fatalf("mispredicting threshold = %g, want bare base %g", got, base)
	}
}

// TestThresholdNeverBelowBreakEven: across a sweep of estimates the
// returned threshold must respect the rent-or-buy floor.
func TestThresholdNeverBelowBreakEven(t *testing.T) {
	m := disk.ModelType1
	p := Defaults()
	for _, gap := range []float64{0.01, 0.5, 1, 2, 3, 5, 8, 13, 50, 1000} {
		c := NewController(p, 1)
		c.Observe(0, 0)
		c.Observe(0, gap)
		if got := c.ThresholdSec(0, 0.5, m); got < m.BreakEvenSec()-1e-9 {
			t.Fatalf("gap %g: threshold %g below break-even %g", gap, got, m.BreakEvenSec())
		}
	}
}

func TestTransitionBudget(t *testing.T) {
	p := Defaults()
	p.BudgetWindowSec = 100
	p.BudgetPerWindow = 2
	c := NewController(p, 1)

	if !c.AllowSpinDown(0, 0) {
		t.Fatal("fresh disk denied its first spin-down")
	}
	c.NoteSpinDown(0, 10)
	c.NoteSpinDown(0, 20)
	if c.AllowSpinDown(0, 30) {
		t.Fatal("third spin-down inside the window allowed")
	}
	if got := c.NextBudgetFreeAt(0, 30); !almost(got, 110) {
		t.Fatalf("NextBudgetFreeAt = %g, want 110 (first entry + window)", got)
	}
	// At exactly first-entry + window the oldest entry ages out.
	if !c.AllowSpinDown(0, 110) {
		t.Fatal("budget not released after the window slid past")
	}
	// The budget is per disk.
	c2 := NewController(p, 2)
	c2.NoteSpinDown(0, 0)
	c2.NoteSpinDown(0, 1)
	if !c2.AllowSpinDown(1, 1) {
		t.Fatal("disk 1 charged for disk 0's spin-downs")
	}
	// Mispredict bypasses the budget entirely — that is the injected
	// fault the transition-budget oracle exists to catch.
	pm := p
	pm.Mispredict = true
	c3 := NewController(pm, 1)
	c3.NoteSpinDown(0, 0)
	c3.NoteSpinDown(0, 1)
	c3.NoteSpinDown(0, 2)
	if !c3.AllowSpinDown(0, 3) {
		t.Fatal("mispredicting controller should bypass the budget")
	}
}

func TestChurnFiresOnDivergence(t *testing.T) {
	p := Defaults()
	p.ChurnWindow = 10
	p.ChurnThreshold = 0.3
	p.ChurnCooldown = 4
	c := NewChurn(p)

	// All hits: never fires, miss rate 0.
	for i := 0; i < 10; i++ {
		if c.Observe(i, true) {
			t.Fatal("churn fired on a pure-hit window")
		}
	}
	if c.MissRate() != 0 {
		t.Fatalf("miss rate %g on a pure-hit window", c.MissRate())
	}

	// Four misses out of ten crosses the 0.3 threshold.
	fired := false
	for i := 0; i < 4; i++ {
		fired = c.Observe(100+i, false)
	}
	if !fired {
		t.Fatalf("churn did not fire at miss rate %g > 0.3", c.MissRate())
	}

	// Reset starts the cooldown: the next few observations stay quiet
	// even though the window is still miss-heavy.
	c.Reset()
	for i := 0; i < p.ChurnCooldown-1; i++ {
		if c.Observe(200+i, false) {
			t.Fatalf("churn fired %d accesses after reset, inside cooldown %d", i+1, p.ChurnCooldown)
		}
	}
	if !c.Observe(300, false) {
		t.Fatal("churn stayed quiet after the cooldown expired")
	}

	// The window holds the ring content.
	if n := len(c.Window()); n != p.ChurnWindow {
		t.Fatalf("window holds %d accesses, want %d", n, p.ChurnWindow)
	}
}

// TestChurnPartialWindow: the detector must not fire before the window
// has filled — a handful of early misses is not evidence of divergence.
func TestChurnPartialWindow(t *testing.T) {
	p := Defaults()
	p.ChurnWindow = 20
	c := NewChurn(p)
	for i := 0; i < 19; i++ {
		if c.Observe(i, false) {
			t.Fatalf("churn fired on a partially filled window (%d/20)", i+1)
		}
	}
}

// TestChurnRescore: after a recompute lands, Rescore must re-label the
// window against the new buffered set — stale misses for now-buffered
// files become hits, and files the recompute skipped stay misses.
func TestChurnRescore(t *testing.T) {
	p := Defaults()
	p.ChurnWindow = 10
	p.ChurnThreshold = 0.3
	p.ChurnCooldown = 4
	c := NewChurn(p)
	// Six hits on file 1, four misses on file 2: over threshold.
	for i := 0; i < 6; i++ {
		c.Observe(1, true)
	}
	for i := 0; i < 4; i++ {
		c.Observe(2, false)
	}
	if c.MissRate() != 0.4 {
		t.Fatalf("miss rate %g before rescore, want 0.4", c.MissRate())
	}
	// The recompute buffered file 2 (and file 1 stayed buffered).
	c.Rescore(func(fid int) bool { return fid == 1 || fid == 2 })
	if c.MissRate() != 0 {
		t.Fatalf("miss rate %g after rescoring a fully-buffered window", c.MissRate())
	}
	// Now pretend the recompute could only keep file 1: every file-2
	// access goes back to being a miss.
	c.Rescore(func(fid int) bool { return fid == 1 })
	if c.MissRate() != 0.4 {
		t.Fatalf("miss rate %g after dropping file 2, want 0.4", c.MissRate())
	}
	// The window is unaffected by rescoring — only labels move.
	if w := c.Window(); !slices.Equal(w, []int{1, 1, 1, 1, 1, 1, 2, 2, 2, 2}) {
		t.Fatalf("window changed under rescore: %v", w)
	}
}

package experiments

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"eevfs/internal/cluster"
	"eevfs/internal/trace"
	"eevfs/internal/workload"
)

// The tests below are the repository's paper-vs-measured gate: each pins a
// shape reported in Section VI of the paper. They run the full-size
// workloads (1000 requests) — the simulator finishes each sweep in tens of
// milliseconds.

// sweep simulates one axis at the paper's parameters.
func sweep(t *testing.T, a axis) []point {
	t.Helper()
	pts, err := a.points(Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

// points simulates the axis's sweep on its own and returns its points.
func (a axis) points(o Options, withNPF bool) ([]point, error) {
	var pts []point
	pl, err := a.sweep(&planner{o, map[workload.SyntheticConfig]*trace.Trace{}}, withNPF, func(p []point) Table { pts = p; return Table{} })
	if err != nil {
		return nil, err
	}
	if _, err := execute(o, []plan{pl}); err != nil {
		return nil, err
	}
	return pts, nil
}

func TestFig3aShapePFWinsAtEverySize(t *testing.T) {
	pts := sweep(t, dataSize)
	for _, p := range pts {
		savings := p.pf.EnergySavingsVs(p.npf)
		if savings <= 5 {
			t.Errorf("size %s: savings %.1f%%, want > 5%%", p.label, savings)
		}
		if savings > 30 {
			t.Errorf("size %s: savings %.1f%% implausibly high", p.label, savings)
		}
	}
	// 50 MB inflates the total energy (longer makespan from queueing).
	first, last := pts[0], pts[len(pts)-1]
	if last.npf.TotalEnergyJ <= first.npf.TotalEnergyJ {
		t.Errorf("NPF energy at 50MB (%.3g) not above 1MB (%.3g)",
			last.npf.TotalEnergyJ, first.npf.TotalEnergyJ)
	}
}

func TestFig3bShapeMUCrossover(t *testing.T) {
	pts := sweep(t, popularity)
	// PF energy essentially identical for MU in {1, 10, 100} (all data
	// covered; disks sleep the whole trace) ...
	e1, e10, e100, e1000 := pts[0].pf.TotalEnergyJ, pts[1].pf.TotalEnergyJ,
		pts[2].pf.TotalEnergyJ, pts[3].pf.TotalEnergyJ
	for _, pair := range [][2]float64{{e1, e10}, {e10, e100}} {
		if math.Abs(pair[0]-pair[1])/pair[0] > 0.02 {
			t.Errorf("PF energies for small MU differ: %g vs %g", pair[0], pair[1])
		}
	}
	// ... while MU=1000 loses part of the gain.
	s1000 := pts[3].pf.EnergySavingsVs(pts[3].npf)
	s100 := pts[2].pf.EnergySavingsVs(pts[2].npf)
	if s1000 >= s100 {
		t.Errorf("MU=1000 savings %.1f%% not below MU=100 savings %.1f%%", s1000, s100)
	}
	if e1000 <= e100 {
		t.Errorf("MU=1000 PF energy %g not above MU=100 %g", e1000, e100)
	}
}

func TestFig3cShapeSavingsGrowWithDelayThenLevel(t *testing.T) {
	pts := sweep(t, delay)
	save := make([]float64, len(pts))
	for i, p := range pts {
		save[i] = p.pf.EnergySavingsVs(p.npf)
		if save[i] <= 0 {
			t.Errorf("delay %s: non-positive savings %.1f%%", p.label, save[i])
		}
	}
	// The 700 ms and 1000 ms points beat the 350 ms point; the curve
	// levels off (no more than 2 points of further growth at 1000 ms).
	if save[2] <= save[1] {
		t.Errorf("savings at 700ms (%.1f%%) not above 350ms (%.1f%%)", save[2], save[1])
	}
	if save[3]-save[2] > 2 {
		t.Errorf("savings still growing strongly at 1000ms: %.1f%% -> %.1f%%", save[2], save[3])
	}
}

func TestFig3dShapeSavingsGrowWithK(t *testing.T) {
	pts := sweep(t, prefetchCount)
	prev := -1.0
	for _, p := range pts {
		sv := p.pf.EnergySavingsVs(p.npf)
		if sv < prev {
			t.Errorf("savings not monotone in K at %s: %.1f%% < %.1f%%", p.label, sv, prev)
		}
		prev = sv
	}
	k10 := pts[0].pf.EnergySavingsVs(pts[0].npf)
	k100 := pts[3].pf.EnergySavingsVs(pts[3].npf)
	if k100-k10 < 2 {
		t.Errorf("K=100 savings %.1f%% not clearly above K=10 %.1f%%", k100, k10)
	}
}

func TestFig4bShapeTransitionCrossover(t *testing.T) {
	pts := sweep(t, popularity)
	nDataDisks := 16 // default testbed: 8 nodes x 2 data disks
	for _, p := range pts[:3] {
		// MU <= 100: each data disk sleeps once at the start and stays
		// asleep: exactly one spin-down per disk, no spin-ups.
		if p.pf.Transitions != nDataDisks {
			t.Errorf("MU=%s transitions = %d, want %d (one sleep per disk)",
				p.label, p.pf.Transitions, nDataDisks)
		}
		if p.pf.SpinUps != 0 {
			t.Errorf("MU=%s spin-ups = %d, want 0", p.label, p.pf.SpinUps)
		}
	}
	// MU=1000: hundreds of transitions (paper's log-scale jump).
	if tr := pts[3].pf.Transitions; tr < 100 {
		t.Errorf("MU=1000 transitions = %d, want hundreds", tr)
	}
}

func TestFig4dShapeK10MaximizesTransitions(t *testing.T) {
	pts := sweep(t, prefetchCount)
	prev := math.MaxInt
	for _, p := range pts {
		if p.pf.Transitions > prev {
			t.Errorf("transitions not decreasing in K at %s: %d > %d",
				p.label, p.pf.Transitions, prev)
		}
		prev = p.pf.Transitions
	}
	if pts[0].pf.Transitions < 3*pts[3].pf.Transitions {
		t.Errorf("K=10 transitions (%d) not dominating K=100 (%d)",
			pts[0].pf.Transitions, pts[3].pf.Transitions)
	}
}

func TestFig5aShapePenaltyShrinksWithSize(t *testing.T) {
	pts := sweep(t, dataSize)
	prev := math.Inf(1)
	for _, p := range pts {
		pen := p.pf.ResponsePenaltyVs(p.npf)
		if pen >= prev {
			t.Errorf("penalty not shrinking at %s: %.1f%% >= %.1f%%", p.label, pen, prev)
		}
		prev = pen
	}
	// Large relative penalty at 1 MB (paper: 121%), tolerable at 25 MB
	// (paper: 4%).
	if pen := pts[0].pf.ResponsePenaltyVs(pts[0].npf); pen < 50 {
		t.Errorf("1MB penalty %.1f%%, want the paper's 'large at small sizes' regime", pen)
	}
	if pen := pts[2].pf.ResponsePenaltyVs(pts[2].npf); pen > 50 {
		t.Errorf("25MB penalty %.1f%%, want tolerable (<50%%)", pen)
	}
}

func TestFig5bShapeNoPenaltyWhenDisksSleepWholeTrace(t *testing.T) {
	pts := sweep(t, popularity)
	for _, p := range pts[:3] {
		if pen := math.Abs(p.pf.ResponsePenaltyVs(p.npf)); pen > 2 {
			t.Errorf("MU=%s penalty %.1f%%, want ~0", p.label, pen)
		}
	}
	if pen := pts[3].pf.ResponsePenaltyVs(pts[3].npf); pen < 10 {
		t.Errorf("MU=1000 penalty %.1f%%, want visible", pen)
	}
}

func TestFig6ShapeWebTrace(t *testing.T) {
	tr, err := workload.Synthetic(Options{}.web())
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulate(Options{}, arms("web", cluster.DefaultTestbed(), tr))
	if err != nil {
		t.Fatal(err)
	}
	p := point{"web", res[0], res[1]}
	savings := p.pf.EnergySavingsVs(p.npf)
	// Paper: ~17%; our calibrated testbed lands ~15%. Accept 12..20.
	if savings < 12 || savings > 20 {
		t.Errorf("web-trace savings %.1f%%, want ~15%% (paper: 17%%)", savings)
	}
	// All data disks stayed in standby for the entire trace.
	if p.pf.SpinUps != 0 {
		t.Errorf("spin-ups = %d, want 0 (disks standby for whole trace)", p.pf.SpinUps)
	}
	if p.pf.HitRatio() != 1 {
		t.Errorf("hit ratio %.3f, want 1.0", p.pf.HitRatio())
	}
}

// TestExtBaselinesEEVFSIsFig6PF: ext-baselines' eevfs-prefetch row is
// the paper's system on the paper's disks, so its cells are fig6's PF
// cells on the same trace and testbed.
func TestExtBaselinesEEVFSIsFig6PF(t *testing.T) {
	base, err := Run("ext-baselines", Options{})
	if err != nil {
		t.Fatal(err)
	}
	web, err := Run("fig6", Options{})
	if err != nil {
		t.Fatal(err)
	}
	ee, pf := base.Rows[len(base.Rows)-1], web.Rows[0]
	if ee[0] != "eevfs-prefetch" || pf[0] != "PF" {
		t.Fatalf("rows %q and %q are not eevfs-prefetch and PF", ee[0], pf[0])
	}
	for _, c := range [][2]int{{1, 1}, {5, 4}} { // energy, mean response
		if ee[c[0]] != pf[c[1]] {
			t.Errorf("%s: eevfs-prefetch %s, fig6 PF %s", base.Columns[c[0]], ee[c[0]], pf[c[1]])
		}
	}
}

func TestExtDisksShapeSavingsGrowWithDisks(t *testing.T) {
	pts := sweep(t, disksPerNode)
	prev := -1.0
	for _, p := range pts {
		sv := p.pf.EnergySavingsVs(p.npf)
		if sv <= prev {
			t.Errorf("savings not growing with disks at %s: %.1f%% <= %.1f%%",
				p.label, sv, prev)
		}
		prev = sv
	}
}

func TestRegistryRunsEveryExperiment(t *testing.T) {
	o := Options{Requests: 120}
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			tab, err := Run(id, o)
			if err != nil {
				t.Fatal(err)
			}
			if tab.ID != id {
				t.Errorf("table id %q != %q", tab.ID, id)
			}
			if len(tab.Rows) == 0 {
				t.Error("empty table")
			}
			var text, md bytes.Buffer
			if err := tab.Render(&text); err != nil {
				t.Fatal(err)
			}
			if err := tab.Markdown(&md); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(text.String(), id) || !strings.Contains(md.String(), id) {
				t.Error("rendered output missing experiment id")
			}
		})
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("fig99", Options{}); err == nil {
		t.Fatal("unknown id accepted")
	}
	// The error is the first failing experiment's, in id order.
	_, err := RunMany([]string{"tableI", "nope", "fig99"}, Options{Requests: 50})
	if err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("RunMany error %v, want the one naming nope", err)
	}
}

func TestIDsStableAndComplete(t *testing.T) {
	ids := IDs()
	if len(ids) != len(registry) {
		t.Fatalf("IDs() returned %d, registry has %d", len(ids), len(registry))
	}
	if ids[0] != "tableI" || ids[1] != "tableII" {
		t.Errorf("tables should come first: %v", ids[:3])
	}
	// Figures in paper order before extensions.
	figDone := false
	for _, id := range ids[2:] {
		isExt := strings.HasPrefix(id, "ext-")
		if figDone && !isExt {
			t.Errorf("figure %s after extensions", id)
		}
		if isExt {
			figDone = true
		}
	}
}

func TestAddRowArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch did not panic")
		}
	}()
	tab := Table{ID: "x", Columns: []string{"a", "b"}}
	tab.AddRow("only-one")
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.requests() != 1000 || o.seed() != 1 {
		t.Errorf("defaults: requests=%d seed=%d", o.requests(), o.seed())
	}
}

func BenchmarkFig3bSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := popularity.points(Options{}, true); err != nil {
			b.Fatal(err)
		}
	}
}

func TestExtThresholdTradeoff(t *testing.T) {
	tab, err := Run("ext-threshold", Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Column 3 is transitions: must fall monotonically as the threshold
	// grows (fewer sleep opportunities pass the gate).
	prev := math.MaxInt
	for _, row := range tab.Rows {
		var tr int
		if _, err := fmt.Sscanf(row[3], "%d", &tr); err != nil {
			t.Fatalf("bad transitions cell %q", row[3])
		}
		if tr > prev {
			t.Fatalf("transitions rose with threshold: %v", tab.Rows)
		}
		prev = tr
	}
}

func TestExtScaleSavingsStable(t *testing.T) {
	w := DefaultTestbedSavingsSpread(t)
	if w > 5 {
		t.Fatalf("savings spread across cluster sizes = %.1f points, want <= 5", w)
	}
}

// DefaultTestbedSavingsSpread runs the scale experiment and returns the
// max-min savings across cluster sizes (helper shared with the test
// above; exported name keeps the call site readable).
func DefaultTestbedSavingsSpread(t *testing.T) float64 {
	t.Helper()
	tab, err := Run("ext-scale", Options{})
	if err != nil {
		t.Fatal(err)
	}
	min, max := math.Inf(1), math.Inf(-1)
	for _, row := range tab.Rows {
		var s float64
		if _, err := fmt.Sscanf(row[3], "%f%%", &s); err != nil {
			t.Fatalf("bad savings cell %q", row[3])
		}
		min = math.Min(min, s)
		max = math.Max(max, s)
	}
	return max - min
}

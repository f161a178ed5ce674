package cluster

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"eevfs/internal/adaptive"
	"eevfs/internal/disk"
	"eevfs/internal/simtime"
)

// ruleStep is one scripted event on a data disk and the answer the rule
// must give: arrive, drain, fire and wake are the four events the
// simulator reports.
type ruleStep struct {
	ev   string
	disk int
	now  float64
	idle bool
	want sleepAction
}

func runRuleScript(t *testing.T, r sleepRule, m *disk.Model, steps []ruleStep) {
	t.Helper()
	for k, st := range steps {
		var got sleepAction
		switch st.ev {
		case "arrive":
			r.arrived(st.disk, st.now)
		case "drain":
			got = r.drained(st.disk, st.now, st.idle, m)
		case "fire":
			got = r.fired(st.disk, st.now, st.idle, m)
		case "wake":
			r.wakes(st.disk, st.now, m)
		default:
			t.Fatalf("step %d: unknown event %q", k, st.ev)
		}
		if got != st.want {
			t.Fatalf("step %d (%s disk %d at %g, idle %v): %+v, want %+v", k, st.ev, st.disk, st.now, st.idle, got, st.want)
		}
	}
}

// The rules decide alone: no engine, no trace, one scripted sequence of
// events per decision each rule makes.
func TestSleepRulesDecide(t *testing.T) {
	m := disk.ModelType1 // SpinDownSec 1, SpinUpSec 2: the cycle is 3 s
	none := sleepAction{}
	down := sleepAction{down: true}
	hinted := func(prewake bool, tau float64, allowed bool, pred ...float64) *hintedRule {
		return &hintedRule{tau: tau, route: 0.001, prewake: prewake,
			disks: []hintedDisk{{pred: pred, allowed: allowed}}}
	}
	for _, c := range []struct {
		name  string
		rule  sleepRule
		steps []ruleStep
	}{
		{"threshold arms at tau and sleeps when it fires", &thresholdRule{tau: 5}, []ruleStep{
			{ev: "drain", now: 10, idle: true, want: sleepAction{arm: true, at: 15}},
			{ev: "fire", now: 15, idle: true, want: down},
		}},
		{"threshold leaves a busy disk to its next drain", &thresholdRule{tau: 5}, []ruleStep{
			// A replay-start drain may find the disk busy; it arms all the same.
			{ev: "drain", now: 0, idle: false, want: sleepAction{arm: true, at: 5}},
			{ev: "fire", now: 5, idle: false, want: none},
		}},
		{"hinted: a gap under the gate stays idle", hinted(false, 5, true, 24), []ruleStep{
			{ev: "drain", now: 20, idle: true, want: none},
		}},
		{"hinted: a gap of at least the gate sleeps", hinted(false, 5, true, 25, 40), []ruleStep{
			{ev: "drain", now: 20, idle: true, want: down},
			{ev: "drain", now: 30, idle: false, want: none},
		}},
		{"hinted: the gate is at least the cycle", hinted(false, 1, true, 22.5), []ruleStep{
			{ev: "drain", now: 20, idle: true, want: none},
		}},
		{"hinted: a request on the control path is imminent", hinted(false, 5, true, 10), []ruleStep{
			// 10 lies within route + 10 ms behind now: not passed yet.
			{ev: "drain", now: 10.005, idle: true, want: none},
		}},
		{"hinted: no prediction left means sleep", hinted(false, 5, true, 10), []ruleStep{
			{ev: "drain", now: 12, idle: true, want: down},
		}},
		{"hinted: a PRE-BUD-vetoed disk never sleeps", hinted(false, 5, false, 100), []ruleStep{
			{ev: "drain", now: 10, idle: true, want: none},
			{ev: "drain", now: 200, idle: true, want: none},
		}},
		{"prewake wakes SpinUpSec ahead of the next access", hinted(true, 5, true, 50), []ruleStep{
			{ev: "drain", now: 10, idle: true, want: sleepAction{down: true, arm: true, at: 48}},
			{ev: "fire", now: 48, want: sleepAction{wake: true}},
		}},
		{"prewake never wakes before the spin-down ends", hinted(true, 2, true, 13), []ruleStep{
			// The gap is the gate (the 3 s cycle), so the wake lands on
			// the spin-down's end: now + SpinDownSec.
			{ev: "drain", now: 10, idle: true, want: sleepAction{down: true, arm: true, at: 11}},
		}},
		{"prewake arms nothing when no prediction is left", hinted(true, 5, true, 10), []ruleStep{
			{ev: "drain", now: 20, idle: true, want: down},
		}},
	} {
		t.Run(c.name, func(t *testing.T) { runRuleScript(t, c.rule, &m, c.steps) })
	}
}

// The adaptive rule: arrivals feed its controller, a budget veto re-arms
// at NextBudgetFreeAt and counts one veto, and a wake banks what the
// episode saved over idling through it.
func TestAdaptiveRuleDecides(t *testing.T) {
	m := disk.ModelType1
	p := adaptive.Defaults()
	p.BudgetPerWindow, p.BudgetWindowSec = 1, 100
	r := newAdaptiveRule(p, 2, 5)
	twin := adaptive.NewController(p, 2)
	for _, at := range []float64{0, 40, 80} {
		twin.Observe(1, at)
	}
	runRuleScript(t, r, &m, []ruleStep{
		{ev: "arrive", disk: 1, now: 0}, {ev: "arrive", disk: 1, now: 40}, {ev: "arrive", disk: 1, now: 80},
		{ev: "drain", disk: 1, now: 80, idle: true, want: sleepAction{arm: true, at: 80 + twin.ThresholdSec(1, 5, m)}},
		{ev: "drain", disk: 1, now: 80, idle: false, want: sleepAction{}},
		{ev: "fire", disk: 0, now: 10, idle: false, want: sleepAction{}},
		{ev: "fire", disk: 0, now: 10, idle: true, want: sleepAction{down: true}},
		{ev: "wake", disk: 0, now: 20},
		{ev: "fire", disk: 0, now: 30, idle: true, want: sleepAction{arm: true, at: 110}},
		{ev: "fire", disk: 0, now: 110, idle: true, want: sleepAction{down: true}},
	})
	if r.vetoes != 1 {
		t.Errorf("%d vetoes, want 1", r.vetoes)
	}
	// Slept at 10, woke at 20: idling through the 10 s and the 2 s wake
	// would have cost PIdle × 12; the cycle cost both transitions and 9 s
	// of standby.
	want := m.PIdle*12 - (m.SpinDownJ + m.PStandby*9 + m.SpinUpJ)
	if r.bankJ != want {
		t.Errorf("bank %g J after one episode, want %g", r.bankJ, want)
	}
	r.wakes(1, 30, &m) // no open episode on disk 1
	if r.bankJ != want {
		t.Errorf("a wake without an episode moved the bank to %g J", r.bankJ)
	}
}

// chargedSavingJ is what a disk.Disk is charged for idling through a gap
// of g seconds minus what it is charged for sleeping through it: the
// spin-down starts at the gap's start and the spin-up ends at its end.
func chargedSavingJ(m disk.Model, g float64) float64 {
	idle := disk.New("idle", m)
	idle.Advance(simtime.Time(g))
	sleep := disk.New("sleep", m)
	sleep.BeginSpinDown(0)
	sleep.CompleteSpinDown(simtime.Time(m.SpinDownSec))
	sleep.BeginSpinUp(simtime.Time(g - m.SpinUpSec))
	sleep.CompleteSpinUp(simtime.Time(g))
	return idle.Stats().EnergyJ - sleep.Stats().EnergyJ
}

// Property: PRE-BUD's prediction is the disk's own charges summed over
// the planned gaps. The gaps come from merging the busy spans [p, p+svc)
// (touching ones included) and taking what they leave of [0, horizon);
// a gap shorter than the gate is not planned.
func TestQuickSavedJIsWhatTheDiskIsCharged(t *testing.T) {
	m := disk.ModelType1
	f := func(raw []uint16, svcRaw, tauRaw uint8) bool {
		pred := make([]float64, len(raw))
		for i, r := range raw {
			pred[i] = float64(r % 400) // whole seconds, so spans touch exactly
		}
		slices.Sort(pred)
		svc := []float64{0, 0.5, 1, 3}[svcRaw%4]
		gate := (&hintedRule{tau: float64(tauRaw % 12)}).gate(&m)
		const horizon = 380.0 // some predictions lie past it

		var spans [][2]float64
		for _, p := range pred {
			if n := len(spans); n > 0 && p <= spans[n-1][1] {
				spans[n-1][1] = max(spans[n-1][1], p+svc)
			} else {
				spans = append(spans, [2]float64{p, p + svc})
			}
		}
		want, scale, cursor := 0.0, 0.0, 0.0
		plan := func(g float64) {
			if g >= gate {
				want += chargedSavingJ(m, g)
				scale += m.PIdle * g
			}
		}
		for _, sp := range spans {
			if sp[0] >= horizon {
				break
			}
			plan(sp[0] - cursor)
			cursor = sp[1]
		}
		plan(horizon - cursor)

		d := hintedDisk{pred: pred}
		got := d.savedJ(svc, horizon, gate, &m)
		if math.Abs(got-want) > 1e-9*scale {
			t.Logf("svc %g gate %g: savedJ %g, charged %g", svc, gate, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// The deny branch, which no measured run reaches: with the idle threshold
// below break-even, gaps that clear the gate but not the break-even lose
// energy, and with no tail gap the disk may not sleep. One gap long enough
// to pay for them lets it.
func TestSavedJDeniesGapsUnderBreakEven(t *testing.T) {
	m := disk.ModelType1 // break-even 5.65 s, cycle 3 s
	gate := (&hintedRule{tau: 2}).gate(&m)
	const svc = 1.0
	d := hintedDisk{pred: []float64{0, 5, 10, 15}} // three 4 s gaps
	if be := m.BreakEvenSec(); !(gate <= 4 && 4 < be) {
		t.Fatalf("gate %g, break-even %g: the 4 s gaps must lie between them", gate, be)
	}
	if got := d.savedJ(svc, 16, gate, &m); got >= 0 {
		t.Errorf("three 4 s gaps and no tail: savedJ %g, want < 0 (deny)", got)
	}
	d.pred = append(d.pred, 36) // and one 20 s gap
	if got := d.savedJ(svc, 37, gate, &m); got <= 0 {
		t.Errorf("with a 20 s gap added: savedJ %g, want > 0 (allow)", got)
	}
}

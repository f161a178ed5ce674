package cluster

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"eevfs/internal/adaptive"
	"eevfs/internal/disk"
	"eevfs/internal/telemetry"
	"eevfs/internal/workload"
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
	hinted := func(prewake bool, tau float64, pred ...float64) *hintedRule {
		return &hintedRule{tau: tau, route: 0.001, prewake: prewake, disks: []hintedDisk{{pred: pred}}}
	}
	cheap := m // transitions so cheap that break-even is the 3 s cycle
	cheap.SpinUpJ, cheap.SpinDownJ = 0.001, 0.001
	for _, c := range []struct {
		name  string
		rule  sleepRule
		m     *disk.Model // nil: m
		steps []ruleStep
	}{
		{"threshold arms at tau and sleeps when it fires", &thresholdRule{tau: 5}, nil, []ruleStep{
			{ev: "drain", now: 10, idle: true, want: sleepAction{arm: true, at: 15}},
			{ev: "fire", now: 15, idle: true, want: down},
		}},
		{"threshold leaves a busy disk to its next drain", &thresholdRule{tau: 5}, nil, []ruleStep{
			// A replay-start drain may find the disk busy; it arms all the same.
			{ev: "drain", now: 0, idle: false, want: sleepAction{arm: true, at: 5}},
			{ev: "fire", now: 5, idle: false, want: none},
		}},
		{"hinted: a gap under the gate stays idle", hinted(false, 5, 25.6), nil, []ruleStep{
			// 5.6 s is past tau but under break-even (5.65 s).
			{ev: "drain", now: 20, idle: true, want: none},
		}},
		{"hinted: a gap of at least the gate sleeps", hinted(false, 5, 25.7, 40), nil, []ruleStep{
			{ev: "drain", now: 20, idle: true, want: down},
			{ev: "drain", now: 30, idle: false, want: none},
		}},
		{"hinted: the gate is at least break-even", hinted(false, 1, 25.6, 40), nil, []ruleStep{
			{ev: "drain", now: 20, idle: true, want: none},
			{ev: "drain", now: 34, idle: true, want: down},
		}},
		{"hinted: the gate is at least tau", hinted(false, 10, 29), nil, []ruleStep{
			{ev: "drain", now: 20, idle: true, want: none},
		}},
		{"hinted: a request on the control path is imminent", hinted(false, 5, 10), nil, []ruleStep{
			// 10 lies within route + 10 ms behind now: not passed yet.
			{ev: "drain", now: 10.005, idle: true, want: none},
		}},
		{"hinted: no prediction left means sleep", hinted(false, 5, 10), nil, []ruleStep{
			{ev: "drain", now: 12, idle: true, want: down},
		}},
		{"prewake wakes SpinUpSec ahead of the next access", hinted(true, 5, 50), nil, []ruleStep{
			{ev: "drain", now: 10, idle: true, want: sleepAction{down: true, arm: true, at: 48}},
			{ev: "fire", now: 48, want: sleepAction{wake: true}},
		}},
		{"prewake never wakes before the spin-down ends", hinted(true, 2, 13), &cheap, []ruleStep{
			// The gap is the gate (break-even at the 3 s cycle), so the
			// wake lands on the spin-down's end: now + SpinDownSec.
			{ev: "drain", now: 10, idle: true, want: sleepAction{down: true, arm: true, at: 11}},
		}},
		{"prewake arms nothing when no prediction is left", hinted(true, 5, 10), nil, []ruleStep{
			{ev: "drain", now: 20, idle: true, want: down},
		}},
	} {
		mm := c.m
		if mm == nil {
			mm = &m
		}
		t.Run(c.name, func(t *testing.T) { runRuleScript(t, c.rule, mm, c.steps) })
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

// Property: the hinted rule orders a spin-down only when it saves energy
// if the plan holds. Over random plans, drain times, thresholds and both
// data-disk models, every spin-down drained orders has either no predicted
// access left or a gap to the next one that SleepSavedJ counts as no
// loss. An access is left while it lies at most route + 10 ms behind now:
// a request still on the control path is imminent.
func TestQuickHintedSleepsOnlyPastBreakEven(t *testing.T) {
	f := func(rawPred, rawNow []uint16, tauRaw, flags uint8) bool {
		m := disk.ModelType1
		if flags&1 != 0 {
			m = disk.ModelType2
		}
		pred := make([]float64, len(rawPred))
		for i, p := range rawPred {
			pred[i] = float64(p%2000) / 8 // 0–250 s in 1/8 s steps
		}
		slices.Sort(pred)
		nows := make([]float64, len(rawNow))
		for i, n := range rawNow {
			nows[i] = float64(n%2000)/8 + 0.0625
		}
		slices.Sort(nows)
		r := &hintedRule{tau: float64(tauRaw%128) / 8, route: 0.001, prewake: flags&2 != 0,
			disks: []hintedDisk{{pred: pred}}}
		for k, now := range nows {
			idle := k%4 != 3 // every fourth drain finds the disk busy
			if !r.drained(0, now, idle, &m).down {
				continue
			}
			if !idle {
				t.Logf("%s: a busy disk was ordered down at %g", m.Name, now)
				return false
			}
			i, _ := slices.BinarySearch(pred, now-r.route-0.01)
			if i < len(pred) && m.SleepSavedJ(pred[i]-now) < -1e-9 {
				t.Logf("%s, tau %g: slept at %g with the next access at %g: %g J saved",
					m.Name, r.tau, now, pred[i], m.SleepSavedJ(pred[i]-now))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// On the default testbed's PF arm, no sleep ends in a client read or write
// that reached the disk before break-even. A sleep is judged by the first
// client service its disk journals after the spin-down began: that
// request reached the disk WaitS before its service started. Sleeps ended
// by a flush or a prefetch, or by nothing, are not judged.
func TestHintedSleepsPassBreakEven(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		wcfg := workload.DefaultSynthetic()
		wcfg.NumRequests, wcfg.Seed = 5000, seed
		tr, err := workload.Synthetic(wcfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultTestbed()
		cfg.Journal = &telemetry.Journal{}
		if _, err := Run(cfg, tr); err != nil {
			t.Fatal(err)
		}
		sleptAt := map[string]float64{} // disk -> start of its open sleep
		judged, losing := 0, 0
		for _, e := range cfg.Journal.Events() {
			var ni, di int
			if _, err := fmt.Sscanf(e.Subject, "node%d/data%d", &ni, &di); err != nil {
				continue
			}
			switch {
			case e.Kind == telemetry.KindState && e.Detail == disk.SpinningDown.String():
				sleptAt[e.Subject] = e.TimeS
			case e.Kind == telemetry.KindService:
				start, open := sleptAt[e.Subject]
				if !open {
					continue
				}
				delete(sleptAt, e.Subject)
				if e.Detail != opLabel(opRead) && e.Detail != opLabel(opWrite) {
					continue
				}
				judged++
				m := &cfg.Nodes[ni].DataModel
				if gap := e.TimeS - e.WaitS - start; gap < m.BreakEvenSec() {
					losing++
					if losing <= 3 {
						t.Errorf("seed %d: %s slept at %.3f s and a client %s reached it %.3f s later, under break-even %.2f s",
							seed, e.Subject, start, e.Detail, gap, m.BreakEvenSec())
					}
				}
			}
		}
		t.Logf("seed %d: %d sleeps ended by a client read or write, %d of them under break-even", seed, judged, losing)
		if judged == 0 {
			t.Errorf("seed %d: no sleep was judged", seed)
		}
	}
}

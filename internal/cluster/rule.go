package cluster

import (
	"eevfs/internal/adaptive"
	"eevfs/internal/disk"
)

// sleepRule is an arm's spin-down decision for its data disks (Section
// III-C). The simulator reports four events on data disk i, in seconds,
// and carries out the answers with the disk's one timer; a rule sees
// neither the engine nor the run. AlwaysOn has none.
type sleepRule interface {
	arrived(i int, now float64) // client demand reached the disk
	// drained: the queue emptied (or replay starts); idle says the disk
	// spins with nothing to do.
	drained(i int, now float64, idle bool, m *disk.Model) sleepAction
	fired(i int, now float64, idle bool, m *disk.Model) sleepAction // the timer ran out
	wakes(i int, now float64, m *disk.Model)                        // a spin-up began
}

// sleepAction is a rule's answer: spin the disk down now, or up now, and
// (re)arm its timer for at.
type sleepAction struct {
	down, wake, arm bool
	at              float64
}

// thresholdRule is the reactive threshold of Prefetch, ThresholdDPM and
// MAID: a disk still idle tau seconds after its queue drained spins down.
type thresholdRule struct{ tau float64 }

func (r *thresholdRule) arrived(int, float64)            {}
func (r *thresholdRule) wakes(int, float64, *disk.Model) {}

func (r *thresholdRule) drained(_ int, now float64, _ bool, _ *disk.Model) sleepAction {
	return sleepAction{arm: true, at: now + r.tau}
}

func (r *thresholdRule) fired(_ int, _ float64, idle bool, _ *disk.Model) sleepAction {
	return sleepAction{down: idle}
}

// hintedRule is the paper's PF sleep (PrefetchHinted, Section IV-C): a
// disk whose queue drains sleeps at once when no predicted access is left,
// or the next is at least the gate away. With prewake (PrefetchPrewake)
// its timer wakes it SpinUpSec ahead of that access.
type hintedRule struct {
	tau, route float64 // IdleThresholdSec and RouteLatencySec
	prewake    bool
	disks      []hintedDisk
}

// hintedDisk is one data disk's plan: the predicted accesses in time
// order and the first not yet passed.
type hintedDisk struct {
	pred []float64
	next int
}

// gate returns the shortest predicted window worth sleeping: the idle
// threshold, floored at the break-even time, so every sleep the plan
// orders saves energy if the plan holds.
func (r *hintedRule) gate(m *disk.Model) float64 {
	return max(r.tau, m.BreakEvenSec())
}

func (r *hintedRule) arrived(int, float64)            {}
func (r *hintedRule) wakes(int, float64, *disk.Model) {}

func (r *hintedRule) drained(i int, now float64, idle bool, m *disk.Model) sleepAction {
	d := &r.disks[i]
	if !idle {
		return sleepAction{}
	}
	horizon := now - r.route - 0.01 // a request still on the control path is imminent
	for d.next < len(d.pred) && d.pred[d.next] < horizon {
		d.next++
	}
	if d.next == len(d.pred) {
		return sleepAction{down: true} // sleep until something real arrives
	}
	next := d.pred[d.next]
	switch {
	case next-now < r.gate(m):
		return sleepAction{} // too short to be worth it
	case r.prewake:
		return sleepAction{down: true, arm: true, at: max(next-m.SpinUpSec, now+m.SpinDownSec)}
	}
	return sleepAction{down: true}
}

// fired is the prewake: any spin-up since it was armed cancelled it, so
// the disk is asleep.
func (r *hintedRule) fired(int, float64, bool, *disk.Model) sleepAction {
	return sleepAction{wake: true}
}

// adaptiveRule is the Adaptive arm's sleep: each disk's threshold adapts
// to its observed inter-arrivals, the transition budget vetoes a
// spin-down until its window frees up, and each sleep, settled on wake,
// credits the savings bank with what it saved over idling through.
type adaptiveRule struct {
	ctl      *adaptive.Controller
	tau      float64
	bankJ    float64 // net Joules saved over never sleeping; fetches draw on it
	vetoes   int
	sleptAt  []float64 // per disk: when its open sleep began
	sleeping []bool
}

func newAdaptiveRule(p adaptive.Params, disks int, tau float64) *adaptiveRule {
	return &adaptiveRule{ctl: adaptive.NewController(p, disks), tau: tau,
		sleptAt: make([]float64, disks), sleeping: make([]bool, disks)}
}

func (r *adaptiveRule) arrived(i int, now float64) { r.ctl.Observe(i, now) }

func (r *adaptiveRule) drained(i int, now float64, idle bool, m *disk.Model) sleepAction {
	if !idle {
		return sleepAction{}
	}
	return sleepAction{arm: true, at: now + r.ctl.ThresholdSec(i, r.tau, *m)}
}

func (r *adaptiveRule) fired(i int, now float64, idle bool, _ *disk.Model) sleepAction {
	switch {
	case !idle:
		return sleepAction{}
	case !r.ctl.AllowSpinDown(i, now):
		r.vetoes++
		return sleepAction{arm: true, at: r.ctl.NextBudgetFreeAt(i, now)}
	}
	r.ctl.NoteSpinDown(i, now)
	r.sleptAt[i], r.sleeping[i] = now, true
	return sleepAction{down: true}
}

// wakes settles the disk's open sleep: what idling through [spin-down,
// end of the wake] would have cost, minus what the cycle cost.
func (r *adaptiveRule) wakes(i int, now float64, m *disk.Model) {
	if !r.sleeping[i] {
		return
	}
	r.sleeping[i] = false
	span := now - r.sleptAt[i] + m.SpinUpSec
	dwell := max(now-r.sleptAt[i]-m.SpinDownSec, 0)
	r.bankJ += m.PIdle*span - (m.SpinDownJ + m.PStandby*dwell + m.SpinUpJ)
}

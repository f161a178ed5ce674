package cluster

import (
	"eevfs/internal/adaptive"
	"eevfs/internal/prefetch"
	"eevfs/internal/simtime"
)

// adaptiveState carries one run's online-policy state (the Adaptive policy).
//
// The arm starts exactly like NPF — cold buffers, no prefetch phase, no
// future knowledge — and earns its way into power management: per-disk
// inter-arrival estimators decide when a spin-down is likely to pay
// back, a per-window transition budget bounds the damage a wrong
// estimate can do, and a savings bank (realized Joules versus the
// idle-through baseline) funds speculative fetches into the buffer
// disks, so the policy can only ever spend energy it has already saved.
type adaptiveState struct {
	params adaptive.Params
	ctl    *adaptive.Controller
	churn  *adaptive.Churn

	// bankJ is the realized net savings versus never sleeping: credited
	// when a sleep episode settles, debited when a fetch is admitted.
	bankJ float64
}

// newAdaptiveState sizes the controller for the run's data disks and
// stamps each with its global index.
func (s *sim) newAdaptiveState() *adaptiveState {
	p := adaptive.Defaults()
	if s.cfg.AdaptiveParams != nil {
		p = *s.cfg.AdaptiveParams
	}
	n := 0
	for _, node := range s.nodes {
		for _, d := range node.data {
			d.adIdx = n
			n++
		}
	}
	return &adaptiveState{
		params: p,
		ctl:    adaptive.NewController(p, n),
		churn:  adaptive.NewChurn(p),
	}
}

// adaptiveObserve feeds one foreground data-disk arrival into the
// estimator. Background fetch reads are excluded: the estimator tracks
// client demand, not the policy's own traffic.
func (s *sim) adaptiveObserve(d *simDisk, r *request, now simtime.Time) {
	if s.adapt == nil || d.isBuffer {
		return
	}
	if r.kind == opRead || r.kind == opWrite {
		s.adapt.ctl.Observe(d.adIdx, float64(now))
	}
}

// adaptiveArm applies the adapted threshold when a data disk goes idle:
// one timer at the controller's threshold; if the disk is still idle
// when it fires, the spin-down is attempted against the budget.
func (s *sim) adaptiveArm(d *simDisk, now simtime.Time) {
	if !d.idle() {
		return
	}
	th := s.adapt.ctl.ThresholdSec(d.adIdx, s.cfg.IdleThresholdSec, *d.d.Model())
	s.eng.Arm(&d.idleTimer, now+simtime.Time(th), s.on.adaptiveMaybeSleep, d)
}

// adaptiveMaybeSleep fires at the adapted threshold: if the disk is
// still idle and the transition budget admits it, spin down; a budget
// veto re-arms at the instant the window frees up.
func (s *sim) adaptiveMaybeSleep(now simtime.Time, arg any) {
	d := arg.(*simDisk)
	if !d.idle() {
		return
	}
	if !s.adapt.ctl.AllowSpinDown(d.adIdx, float64(now)) {
		s.res.AdaptiveBudgetVetoes++
		at := s.adapt.ctl.NextBudgetFreeAt(d.adIdx, float64(now))
		s.eng.Arm(&d.idleTimer, simtime.Time(at), s.on.adaptiveMaybeSleep, d)
		return
	}
	s.adapt.ctl.NoteSpinDown(d.adIdx, float64(now))
	d.adSleepStart = float64(now)
	d.adSleeping = true
	s.beginSpinDown(d, now)
}

// adaptiveSettle credits the bank when a sleep episode ends at wake
// time: what idling through [sleep start, wake end] would have cost,
// minus what the cycle actually cost.
func (s *sim) adaptiveSettle(d *simDisk, now simtime.Time) {
	if s.adapt == nil || !d.adSleeping {
		return
	}
	d.adSleeping = false
	m := d.d.Model()
	span := float64(now) - d.adSleepStart + m.SpinUpSec
	dwell := float64(now) - d.adSleepStart - m.SpinDownSec
	if dwell < 0 {
		dwell = 0
	}
	s.adapt.bankJ += m.PIdle*span - (m.SpinDownJ + m.PStandby*dwell + m.SpinUpJ)
}

// adaptiveNoteRead feeds the churn detector with one read's buffer
// outcome and runs the re-prefetch when the hot set has drifted away
// from the buffered set.
func (s *sim) adaptiveNoteRead(fid int, now simtime.Time) {
	if s.adapt == nil {
		return
	}
	if s.adapt.churn.Observe(fid, s.prefetched[fid]) {
		s.adaptiveReprefetch(now)
	}
}

// adaptiveFetchFeeJ conservatively estimates the energy a fetch will
// spend: the data-disk read and the buffer-disk append, both priced at
// full active power (the true cost is only the increment over idle, so
// the bank gate errs on the safe side).
func (s *sim) adaptiveFetchFeeJ(n *simNode, fid int, size int64) float64 {
	fee := 0.0
	for _, ch := range s.chunksOf(fid) {
		m := n.cfg.DataModel
		fee += m.PActive * m.ServiceTime(ch.bytes)
	}
	bm := n.cfg.BufferModel
	fee += bm.PActive * bm.SequentialTime(size)
	return fee
}

// adaptiveReprefetch re-ranks the windowed popularity counts and
// fetches the hot files the buffers are missing. Every admission is
// gated: the file must be demonstrably hot (MinFetchHits in-window),
// its source data disks must be spinning and unoccupied (never wake or
// delay a disk for speculation), and the savings bank must hold
// FetchSafety times the fetch's estimated cost.
func (s *sim) adaptiveReprefetch(now simtime.Time) {
	p := s.adapt.params
	ids := prefetch.SelectWindowed(s.adapt.churn.Window(), p.MinFetchHits, 0)
	want := &wanted{ids: ids}
	fetched := 0
	for _, fid := range ids {
		if fetched >= p.MaxFetchPerRecompute {
			break
		}
		if s.prefetched[fid] || s.fetching[fid] {
			continue
		}
		n := s.nodes[s.assign.Node[fid]]
		size := s.tr.FileSizes[fid]
		idle := true
		for _, ch := range s.chunksOf(fid) {
			dd := n.data[ch.disk]
			if !dd.idle() {
				idle = false
				break
			}
		}
		if !idle {
			continue
		}
		fee := s.adaptiveFetchFeeJ(n, fid, size)
		if s.adapt.bankJ < p.FetchSafety*fee {
			continue
		}
		if s.admitFetch(n, fid, want, fee, now) {
			fetched++
		}
	}
	s.res.AdaptiveReprefetches++
	// Reset starts the cooldown but deliberately keeps the window's miss
	// labels (no Rescore): a recompute here may fetch only part of what
	// it wants — the cap, the bank, and the never-wake-a-disk gate all
	// skip files — so refiring after the cooldown is the retry loop that
	// finishes chasing the hot set, and every retry is bank-gated. The
	// real server does the opposite (Rescore) because its fetches are
	// ungated RPC fan-outs where a stale-evidence refire is pure waste.
	s.adapt.churn.Reset()
}

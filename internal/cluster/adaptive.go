package cluster

import (
	"eevfs/internal/adaptive"
	"eevfs/internal/prefetch"
	"eevfs/internal/simtime"
)

// adaptiveState is the Adaptive arm's re-prefetch half; its sleep rule
// (adaptiveRule) is the other.
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
	churn  *adaptive.Churn
	sleep  *adaptiveRule // holds the bank
}

func (s *sim) newAdaptiveState() *adaptiveState {
	p := adaptive.Defaults()
	if s.cfg.AdaptiveParams != nil {
		p = *s.cfg.AdaptiveParams
	}
	disks := len(s.nodes) * s.cfg.DataDisksPerNode()
	return &adaptiveState{params: p, churn: adaptive.NewChurn(p), sleep: newAdaptiveRule(p, disks, s.cfg.IdleThresholdSec)}
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
		if s.adapt.sleep.bankJ < p.FetchSafety*fee {
			continue
		}
		if s.admitFetch(n, fid, want, now) {
			s.adapt.sleep.bankJ -= fee
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

package fs

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"eevfs/internal/adaptive"
	"eevfs/internal/metadata"
	"eevfs/internal/prefetch"
	"eevfs/internal/proto"
	"eevfs/internal/telemetry"
)

// The prefetch policy: what is staged on the buffer disks, and when. A
// client commands a prefetch (handlePrefetch); under -policy=adaptive the
// reprefetcher commands one on its own when the hot set moves. Both go
// through commandPrefetch.

// reprefetcher is the adaptive policy's server half: a churn detector fed
// by the lookup path and a single-flight background re-prefetch when it
// fires. A nil *reprefetcher is the static policy. The detector and the
// buffered set it scores against belong to loop alone; other goroutines
// reach them through the two channels, so the read path takes no lock
// and waits on no node RPC.
type reprefetcher struct {
	s      *Server
	params adaptive.Params
	lastK  atomic.Int64 // cap of one re-prefetch: AdaptiveK, then the operator's last K
	busy   atomic.Bool  // a re-prefetch is in flight
	// obs carries accesses off the lookup hot path: one non-blocking send
	// each, and overflow drops the observation (counted) — under the load
	// that fills 4096 slots the detector has evidence to spare.
	obs    chan int
	staged chan []int // each newly buffered set

	reprefetches *telemetry.Counter
	dropped      *telemetry.Counter
}

// newReprefetcher validates the configured policy; static yields nil.
func newReprefetcher(cfg ServerConfig) (*reprefetcher, error) {
	switch cfg.Policy {
	case "", "static":
		return nil, nil
	case "adaptive":
	default:
		return nil, fmt.Errorf("fs: unknown policy %q (want static or adaptive)", cfg.Policy)
	}
	p := &reprefetcher{
		params:       adaptive.Defaults(),
		obs:          make(chan int, 4096),
		staged:       make(chan []int),
		reprefetches: cfg.Metrics.Counter("server.adaptive.reprefetches"),
		dropped:      cfg.Metrics.Counter("server.adaptive.churn.dropped"),
	}
	if cfg.AdaptiveParams != nil {
		p.params = *cfg.AdaptiveParams
	}
	if err := p.params.Validate(); err != nil {
		return nil, err
	}
	p.lastK.Store(int64(cmp.Or(max(cfg.AdaptiveK, 0), 32)))
	return p, nil
}

// observe hands one access to the detector.
func (p *reprefetcher) observe(id int) {
	if p == nil {
		return
	}
	select {
	case p.obs <- id:
	default:
		p.dropped.Inc()
	}
}

// observeReport hands a client's access report to the detector, whose
// window is a stream of accesses, not per-file folds: each file's reads
// are spread evenly between its first and its last, and all of them go
// in time order. At most cap(obs) reads go in, which is as many as the
// channel holds.
func (p *reprefetcher) observeReport(recs []proto.AccessAge) {
	if p == nil {
		return
	}
	type read struct {
		age float64
		id  int
	}
	var reads []read
	for _, r := range recs {
		for j := int64(0); j < r.Count && len(reads) < cap(p.obs); j++ {
			age := r.FirstAge
			if r.Count > 1 {
				age -= (r.FirstAge - r.LastAge) * float64(j) / float64(r.Count-1)
			}
			reads = append(reads, read{age, int(r.FileID)})
		}
	}
	slices.SortStableFunc(reads, func(a, b read) int { return cmp.Compare(b.age, a.age) })
	for _, r := range reads {
		p.observe(r.id)
	}
}

// noteBuffered replaces the buffered set the detector scores hits
// against and starts its cooldown; k > 0 is an operator's prefetch depth
// and becomes the cap of later re-prefetches.
func (p *reprefetcher) noteBuffered(ids []int, k int) {
	if p == nil {
		return
	}
	if k > 0 {
		p.lastK.Store(int64(k))
	}
	select {
	case p.staged <- ids:
	case <-p.s.stop:
	}
}

// loop scores each observed access against the buffered set and starts a
// background re-prefetch when the detector fires.
func (p *reprefetcher) loop() {
	defer p.s.wg.Done()
	churn := adaptive.NewChurn(p.params)
	buffered := map[int]bool{}
	for {
		select {
		case <-p.s.stop:
			return
		case ids := <-p.staged:
			buffered = make(map[int]bool, len(ids))
			for _, id := range ids {
				buffered[id] = true
			}
			churn.Reset()
			churn.Rescore(func(fid int) bool { return buffered[fid] })
		case id := <-p.obs:
			if churn.Observe(id, buffered[id]) && p.s.log.isPrimary() && p.busy.CompareAndSwap(false, true) {
				p.s.wg.Add(1)
				go p.recompute(churn.Window())
			}
		}
	}
}

// recompute is the churn-triggered re-prefetch: rank the files seen in
// the detector's recent window (not whole-history counts — the point is
// to chase the hot set as it moves), command the nodes through the
// fan-out a client-issued prefetch uses, and record the new buffered
// set. Failures are logged, not fatal, and do not reset the detector, so
// a transient node error is retried on the next trigger.
func (p *reprefetcher) recompute(window []int) {
	defer p.s.wg.Done()
	defer p.busy.Store(false)
	ids := prefetch.SelectWindowed(window, p.params.MinFetchHits, int(p.lastK.Load()))
	if len(ids) == 0 {
		return
	}
	// Counted at command time: a concurrent read may be served from a
	// freshly staged buffer before the whole fan-out returns.
	p.reprefetches.Inc()
	if _, err := p.s.commandPrefetch(ids, nil); err != nil {
		p.s.cfg.Logger.Printf("adaptive reprefetch: %v", err)
		return
	}
	p.noteBuffered(ids, 0)
}

// handlePrefetch ranks files by logged popularity, picks the global top
// K, groups the picks by owning node, and commands each node (steps 2-3
// of the process flow). Unhealthy nodes are skipped — a degraded cluster
// still prefetches everywhere it can.
func (s *Server) handlePrefetch(req proto.PrefetchReq, sp *telemetry.Span) (proto.PrefetchResp, error) {
	k := int(req.K)
	if k < 0 {
		return proto.PrefetchResp{}, fmt.Errorf("fs: negative prefetch count %d", k)
	}
	// Ship the popularity observed since the last epoch to the followers
	// first: if this primary dies right after prefetching, its successor
	// ranks files from the same evidence.
	s.flushAccessEpoch()
	counts, sizes := s.ns.popularity()
	ids, err := prefetch.Select(counts, sizes, k, 0)
	if err != nil {
		return proto.PrefetchResp{}, err
	}
	total, err := s.commandPrefetch(ids, sp)
	if err == nil {
		s.policy.noteBuffered(ids, k)
	}
	return proto.PrefetchResp{Prefetched: total}, err
}

// commandPrefetch groups the selected ids by owning node, commands each
// node's staging concurrently, forwards access-pattern hints, and
// mirrors when configured — the fan-out shared by client-issued and
// adaptive re-prefetches.
func (s *Server) commandPrefetch(ids []int, sp *telemetry.Span) (int64, error) {
	perNode := make([][]int64, len(s.nodes.all))
	for _, id := range ids {
		fi, ok := s.ns.meta.LookupID(id)
		if !ok {
			continue // deleted since it was accessed
		}
		perNode[fi.Node] = append(perNode[fi.Node], int64(id))
	}

	counts := make([]int64, len(s.nodes.all))
	err := s.nodes.fanOut(
		func(i int) bool { return len(perNode[i]) > 0 },
		func(i int, h *nodeHandle) {
			s.cfg.Logger.Printf("prefetch: skipping unhealthy node %s (%d files)", h.addr, len(perNode[i]))
		},
		func(i int, h *nodeHandle) error {
			_, payload, err := s.nodes.roundTrip(h, proto.TNodePrefetchReq,
				proto.NodePrefetchReq{FileIDs: perNode[i]}.Encode(), sp)
			if err != nil {
				return fmt.Errorf("fs: prefetch on node %d: %w", i, err)
			}
			resp, err := proto.DecodePrefetchResp(payload)
			if err != nil {
				return err
			}
			counts[i] = resp.Prefetched
			return nil
		})
	var total int64
	for _, c := range counts {
		total += c
	}
	if err != nil {
		return total, err
	}

	// Step 4 of the process flow: forward the observed access patterns as
	// hints so the nodes can predict idle windows. Failures are logged,
	// not fatal — hints are advisory ("EEVFS can operate without the
	// application hints", Section IV-C).
	hints := s.ns.hintsPerNode()
	s.nodes.fanOut(
		func(i int) bool { return len(hints[i]) > 0 },
		nil,
		func(i int, h *nodeHandle) error {
			if _, _, err := s.nodes.roundTrip(h, proto.TNodeHintsReq,
				proto.NodeHintsReq{Hints: hints[i]}.Encode(), sp); err != nil {
				s.cfg.Logger.Printf("forwarding hints to node %d: %v", i, err)
			}
			return nil
		})
	if s.cfg.MirrorPrefetch {
		s.mirrorFiles(ids, sp)
	}
	return total, nil
}

// mirrorFiles copies each prefetched file to a second healthy node's
// buffer disk and records the replica, so the read path can fall back
// there while the owner is down. Failures are logged, never fatal —
// mirroring is an availability bonus, not a correctness requirement.
// Known race: a write landing between the copy and the marker commit
// leaves the marker pointing at pre-write bytes until the next write
// lookup invalidates it.
func (s *Server) mirrorFiles(ids []int, sp *telemetry.Span) {
	nodes := s.nodes.all
	if len(nodes) < 2 {
		return
	}
	for _, id := range ids {
		fi, ok := s.ns.meta.LookupID(id)
		if !ok {
			continue // deleted since selection
		}
		if ridx, has := fi.ReplicaNode(); has && ridx < len(nodes) && nodes[ridx].healthy() {
			continue // already mirrored somewhere usable
		}
		if !nodes[fi.Node].healthy() {
			continue
		}
		mirror := -1
		for j := 1; j < len(nodes); j++ {
			if cand := (fi.Node + j) % len(nodes); nodes[cand].healthy() {
				mirror = cand
				break
			}
		}
		if mirror < 0 {
			continue
		}
		if err := s.copyToMirror(fi, mirror, sp); err != nil {
			s.cfg.Logger.Printf("mirror %s to node %d: %v", fi.Name, mirror, err)
			continue
		}
		// Re-read before marking: the file may have been deleted or
		// recreated under the same name while the bytes moved.
		if cur, ok := s.ns.meta.LookupName(fi.Name); ok && cur.ID == fi.ID {
			s.mutate(proto.RepOp{Kind: proto.RepOpReplica, Name: fi.Name, Replica: int64(mirror + 1)}, sp, nil)
		}
	}
}

// copyToMirror moves one file's bytes owner -> server -> mirror, then
// has the mirror stage them on its buffer disk (the paper's prefetch
// mechanics reused for the replica).
func (s *Server) copyToMirror(fi metadata.FileInfo, mirror int, sp *telemetry.Span) error {
	_, payload, err := s.nodes.roundTrip(s.nodes.all[fi.Node], proto.TNodeReadReq,
		proto.NodeReadReq{FileID: int64(fi.ID)}.Encode(), sp)
	if err != nil {
		return err
	}
	data, err := proto.DecodeNodeReadResp(payload)
	if err != nil {
		return err
	}
	mh := s.nodes.all[mirror]
	if _, _, err := s.nodes.roundTrip(mh, proto.TNodeCreateReq,
		proto.NodeCreateReq{FileID: int64(fi.ID), Size: int64(len(data.Data))}.Encode(), sp); err != nil {
		return err
	}
	_, wp, err := s.nodes.roundTrip(mh, proto.TNodeWriteReq,
		proto.NodeWriteReq{FileID: int64(fi.ID), Data: data.Data}.Encode(), sp)
	if err != nil {
		return err
	}
	wresp, err := proto.DecodeNodeWriteResp(wp)
	if err != nil {
		return err
	}
	if !wresp.Buffered {
		// The write landed on a data disk; stage the copy onto the
		// mirror's buffer disk like any prefetch.
		if _, _, err := s.nodes.roundTrip(mh, proto.TNodePrefetchReq,
			proto.NodePrefetchReq{FileIDs: []int64{int64(fi.ID)}}.Encode(), sp); err != nil {
			return err
		}
	}
	return nil
}

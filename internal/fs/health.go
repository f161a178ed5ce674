package fs

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"

	"eevfs/internal/proto"
	"eevfs/internal/telemetry"
)

// link is the server's persistent connection pair to one other daemon, a
// storage node or a peer server (step 1 of the process flow: "the server
// ... establishes a TCP/IP connection to each storage node"). The probe
// endpoint is separate so background health checks never queue behind —
// or get stuck ahead of — real traffic on the main connection.
type link struct {
	addr  string
	ep    *proto.Endpoint
	probe *proto.Endpoint // single attempt, no retries
}

// newLink builds the (lazily dialed) pair; ordinal is the link's position
// among all the server's links and decorrelates their retry jitter.
func newLink(cfg ServerConfig, addr string, ordinal int) link {
	tc := cfg.Transport
	tc.Seed += int64(ordinal) + 1
	tc.Metrics = cfg.Metrics // round trips feed proto.rt.*
	probeCfg := tc
	probeCfg.Retries = -1  // probes are frequent; one attempt each
	probeCfg.Metrics = nil // keep the per-second probe chatter out of the RPC metrics
	return link{addr, proto.NewEndpoint(addr, cfg.Dialer, tc), proto.NewEndpoint(addr, cfg.Dialer, probeCfg)}
}

func (l link) close() {
	l.ep.Close()
	l.probe.Close()
}

// nodeHandle is one storage node's link plus its health state.
type nodeHandle struct {
	link
	placed *telemetry.Counter // files placed here (server.placement.node<i>)

	mu        sync.Mutex
	fails     int // consecutive transport failures
	unhealthy bool
}

// healthy reports whether the node is currently in service.
func (h *nodeHandle) healthy() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return !h.unhealthy
}

// nodeSet is the storage nodes as the server sees them: every round
// trip to a node goes through it and feeds that node's health word (the
// only lock here, one per node), probing readmits nodes that return, and
// placement and fan-outs skip the ones that are down.
type nodeSet struct {
	all           []*nodeHandle // index-aligned with ServerConfig.NodeAddrs
	failThreshold int
	logger        *log.Logger
	tracer        *telemetry.Tracer
	nodeOps       *opTable // names a round trip's span after the node's row
	transitions   *telemetry.Counter
	healthyG      *telemetry.Gauge
}

func newNodeSet(cfg ServerConfig) *nodeSet {
	ns := &nodeSet{
		failThreshold: cfg.Health.FailThreshold,
		logger:        cfg.Logger,
		tracer:        cfg.Tracer,
		nodeOps:       newOpTable("node", nil, nil, (*Node)(nil).ops()),
		transitions:   cfg.Metrics.Counter("server.health.transitions"),
		healthyG:      cfg.Metrics.Gauge("server.nodes.healthy"),
	}
	ns.healthyG.Set(float64(len(cfg.NodeAddrs)))
	for i, addr := range cfg.NodeAddrs {
		ns.all = append(ns.all, &nodeHandle{
			link:   newLink(cfg, addr, i),
			placed: cfg.Metrics.Counter(fmt.Sprintf("server.placement.node%d", i)),
		})
	}
	return ns
}

// roundTrip runs one request on a node's main connection and feeds the
// outcome into its health state. Under a parent span the RPC gets a
// child span of its own and carries that child's context to the node,
// so the node's server-side span parents correctly under this hop.
func (ns *nodeSet) roundTrip(h *nodeHandle, t proto.Type, payload []byte, parent *telemetry.Span) (proto.Type, []byte, error) {
	sp := ns.tracer.StartChild(parent.Context(), "server", ns.nodeOps.rows[t].span)
	sp.Annotate("peer", h.addr)
	rt, rp, err := h.ep.CallCtx(t, payload, sp.Context())
	sp.End(err)
	ns.note(h, err)
	return rt, rp, err
}

// note feeds one round-trip outcome into a node's health state. Remote
// application errors count as proof of life: the node answered.
func (ns *nodeSet) note(h *nodeHandle, err error) {
	h.mu.Lock()
	was := h.unhealthy
	if err == nil || isRemoteErr(err) {
		h.fails, h.unhealthy = 0, false
	} else if h.fails++; h.fails >= ns.failThreshold {
		h.unhealthy = true
	}
	now := h.unhealthy
	h.mu.Unlock()
	switch {
	case now && !was:
		ns.logger.Printf("node %s marked unhealthy: %v", h.addr, err)
		ns.transitions.Inc()
		ns.healthyG.Add(-1)
	case was && !now:
		ns.logger.Printf("node %s recovered", h.addr)
		ns.transitions.Inc()
		ns.healthyG.Add(1)
	}
}

// probeAll pings every node on its dedicated probe connection,
// concurrently, so detection latency stays one round trip even on wide
// clusters: detection for partitions no client is exercising, the
// recovery path for nodes marked unhealthy, and the "re-register every
// node" step of a freshly promoted primary.
func (ns *nodeSet) probeAll() {
	var wg sync.WaitGroup
	for _, h := range ns.all {
		wg.Add(1)
		go func(h *nodeHandle) {
			defer wg.Done()
			_, _, err := h.probe.Call(proto.TNodeStatsReq, nil)
			ns.note(h, err)
		}(h)
	}
	wg.Wait()
}

// pick chooses the next healthy node round-robin (creation order
// embodies popularity order, Section IV-A; unhealthy nodes are skipped so
// new files land only where they can be written — degraded-mode
// placement). Lock-free: the cursor is an atomic, so concurrent creates
// each claim a distinct slot.
func (ns *nodeSet) pick(cursor *atomic.Int64) (int, error) {
	for range ns.all {
		idx := int((cursor.Add(1) - 1) % int64(len(ns.all)))
		if ns.all[idx].healthy() {
			return idx, nil
		}
	}
	return 0, fmt.Errorf("fs: %w: all %d storage nodes unhealthy",
		ErrNodeUnavailable, len(ns.all))
}

// fanOut runs call(i, h) concurrently for every healthy node i that pick
// selects (nil = every node) — each node's RPC rides its own multiplexed
// endpoint, so a slow spindle on one node does not serialize the round —
// and, once all have returned, reports the error of the lowest-indexed
// node that failed, so the error a caller sees is deterministic. call
// leaves its result in a slot of its own node. An unhealthy node is not
// called, after skip (when not nil) has logged it: a degraded cluster
// still does everywhere what it can.
func (ns *nodeSet) fanOut(pick func(i int) bool, skip func(i int, h *nodeHandle), call func(i int, h *nodeHandle) error) error {
	errs := make([]error, len(ns.all))
	var wg sync.WaitGroup
	for i, h := range ns.all {
		if pick != nil && !pick(i) {
			continue
		}
		if !h.healthy() {
			if skip != nil {
				skip(i, h)
			}
			continue
		}
		wg.Add(1)
		go func(i int, h *nodeHandle) {
			defer wg.Done()
			errs[i] = call(i, h)
		}(i, h)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

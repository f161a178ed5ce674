package fs

import (
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"eevfs/internal/adaptive"
	"eevfs/internal/metadata"
	"eevfs/internal/prefetch"
	"eevfs/internal/proto"
	"eevfs/internal/telemetry"
	"eevfs/internal/wal"
)

// HealthConfig tunes node failure detection and recovery.
type HealthConfig struct {
	// FailThreshold marks a node unhealthy after this many consecutive
	// transport failures (default 3).
	FailThreshold int
	// ProbeInterval is the background health-check period: every tick the
	// server pings each node over a dedicated probe connection, so
	// partitions are detected without client traffic and dead nodes are
	// readmitted when they return. Default 1s; negative disables probing.
	ProbeInterval time.Duration
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = time.Second
	}
	return c
}

// ServerConfig configures the storage-server daemon.
type ServerConfig struct {
	// Addr is the TCP listen address.
	Addr string
	// NodeAddrs lists the storage-node daemons, in the order the
	// popularity round-robin should use.
	NodeAddrs []string
	// StateFile, when set, persists the server's metadata (name -> node
	// assignments) so a restarted server keeps its namespace: a checkpoint
	// at this path plus the op log at <StateFile>.wal.
	StateFile string
	// Logger receives operational messages (nil = stderr default).
	Logger *log.Logger
	// Dialer opens the server -> node connections (nil = plain TCP).
	// Chaos tests inject a faultnet.Network here.
	Dialer proto.Dialer
	// Transport bounds and retries every server -> node round trip.
	Transport proto.TransportConfig
	// Health tunes node failure detection and recovery probing.
	Health HealthConfig
	// WriteTimeout bounds writing one response frame to a client, so a
	// stalled client cannot pin a serving goroutine (default 30s).
	WriteTimeout time.Duration
	// Peers lists every metadata server of a replicated group (client
	// addresses, including this server's own), index-aligned across the
	// group. Empty means standalone: no replication, exactly the classic
	// single-server behavior.
	Peers []string
	// Self is this server's index in Peers. Index 0 boots as primary on
	// a cold start; any server follows an already-running primary it
	// discovers at startup.
	Self int
	// Listener, when set, is used instead of listening on Addr. Tests
	// pre-bind ephemeral ports with it so a replicated group can know
	// every member's address before any member starts.
	Listener net.Listener
	// MirrorPrefetch copies each prefetched file to a second node's
	// buffer disk and records the replica, so reads survive the owning
	// node's death (pre-work for full data replication).
	MirrorPrefetch bool
	// Policy selects the prefetch-management policy. "static" (or
	// empty, the default) prefetches only when a client commands it;
	// "adaptive" additionally watches the live access stream with a
	// churn detector and re-prefetches on its own — ranked over the
	// recent window, not whole history — whenever the observed hot set
	// diverges from the buffered one.
	Policy string
	// AdaptiveParams tunes the adaptive policy's churn detector and
	// windowed selection (nil = adaptive.Defaults()). Only consulted
	// when Policy is "adaptive".
	AdaptiveParams *adaptive.Params
	// AdaptiveK caps how many files one adaptive re-prefetch selects
	// (default 32). A client-commanded prefetch's K takes over as the
	// cap afterwards.
	AdaptiveK int
	// ReplChaosSilentAfter is a test-only fault injection: a primary
	// stops replicating (but keeps acking clients) once its op log
	// passes this seq. It exists so the failover test battery can prove
	// the convergence oracle and shrinker catch real divergence. Zero
	// disables it.
	ReplChaosSilentAfter int
	// Metrics, when set, receives the server's telemetry: per-op latency
	// histograms and error counters (server.op.*), node-health
	// transitions (server.health.*), placement decisions
	// (server.placement.*), and — shared with the node endpoints — the
	// proto.rt.* transport metrics. Nil disables instrumentation.
	Metrics *telemetry.Registry
	// Tracer, when set, records a span per handled request (joined to the
	// client's trace when the frame carried a context) plus child spans
	// for node fan-out and replication appends. Nil disables tracing.
	Tracer *telemetry.Tracer
}

// nodeHandle is the server's persistent connection to one storage node
// (step 1 of the process flow: "the server ... establishes a TCP/IP
// connection to each storage node") plus its health state. The probe
// endpoint is separate so background health checks never queue behind —
// or get stuck ahead of — real traffic on the main connection.
type nodeHandle struct {
	addr  string
	ep    *proto.Endpoint
	probe *proto.Endpoint

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

// note feeds one round-trip outcome into the health state, returning +1
// when the node just recovered, -1 when it was just marked unhealthy,
// and 0 on no transition. Remote application errors count as proof of
// life: the node answered.
func (h *nodeHandle) note(err error, failThreshold int) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err == nil || isRemoteErr(err) {
		h.fails = 0
		if h.unhealthy {
			h.unhealthy = false
			return +1
		}
		return 0
	}
	h.fails++
	if !h.unhealthy && h.fails >= failThreshold {
		h.unhealthy = true
		return -1
	}
	return 0
}

// Server is a running storage-server daemon.
//
// Concurrency model: there is no global server mutex. File metadata
// lives in a striped map (metadata.Sharded), popularity is a per-file
// fold updated with atomics (popTable), and the id/placement cursors are
// atomics — so independent client operations on different
// files never contend on a shared lock. The only mutexes left guard each
// node's health word and the commit path that orders mutations into the
// op log (the listener brings its own for the connection set).
type Server struct {
	cfg    ServerConfig
	lis    listener
	meta   *metadata.Sharded
	nodes  []*nodeHandle
	clock  *Clock
	logger *log.Logger

	// Pre-resolved telemetry handles (all no-ops with a nil registry).
	met               opMetrics
	healthTransitions *telemetry.Counter
	healthyNodes      *telemetry.Gauge
	placements        []*telemetry.Counter
	accessCtr         *telemetry.Counter

	// Adaptive policy state (nil churn = static policy). churnMu guards
	// the detector ring and the buffered-set snapshot; the actual
	// re-prefetch runs in a single-flight background goroutine so the
	// read path never waits on node RPCs.
	churnMu      sync.Mutex
	churn        *adaptive.Churn
	buffered     map[int]bool
	adParams     adaptive.Params
	adBusy       atomic.Bool
	lastK        atomic.Int64
	reprefetches *telemetry.Counter
	// churnCh decouples churn detection from the lookup hot path: the
	// read path does one non-blocking send and a single churnLoop
	// goroutine owns the detector, so concurrent lookups never serialize
	// on churnMu. Overflow drops the observation (counted) — under the
	// load that fills 4096 slots the detector has evidence to spare.
	churnCh      chan int
	churnDropped *telemetry.Counter

	pop      popTable     // per file id: size and access fold
	nextID   atomic.Int64 // next file id
	nextNode atomic.Int64 // placement round-robin cursor

	wg      sync.WaitGroup // the churn loop and its re-prefetches
	probeWg sync.WaitGroup
	repWg   sync.WaitGroup
	stop    chan struct{}

	// Replication plane (see replication.go). peers is index-aligned
	// with cfg.Peers; peers[cfg.Self] is nil. repMu orders mutations
	// into the op log — on disk (wal, nil without a StateFile) and out
	// to the followers; repSeq is the canonical last-applied seq under
	// repMu, mirrored in repSeqA for lock-free status answers. commitQ
	// (under commitMu) holds applied mutations waiting for the next
	// repMu holder to sequence them as one batch.
	peers      []*peerHandle
	primary    atomic.Bool
	primaryIdx atomic.Int64
	epoch      atomic.Uint64
	forceElect atomic.Bool
	repMu      sync.Mutex
	repSeq     uint64
	wal        *wal.Log
	commitMu   sync.Mutex
	commitQ    []proto.RepOp
	repSeqA    atomic.Uint64
	watchFails int // consecutive failed primary probes (repLoop-owned)
	// plantReshipEpoch is the replication oracle's planted bug: an epoch
	// ships its deltas without recording them as shipped.
	plantReshipEpoch bool

	replLag      *telemetry.Gauge
	roleG        *telemetry.Gauge
	failoversC   *telemetry.Counter
	replBatch    *telemetry.Histogram // ops per RepAppendReq
	logBytesC    *telemetry.Counter
	checkpointsC *telemetry.Counter
}

// StartServer binds the listener and begins serving. Node daemons must be
// reachable by the time a request needs them (connections are lazy).
func StartServer(cfg ServerConfig) (*Server, error) {
	if len(cfg.NodeAddrs) == 0 {
		return nil, errors.New("fs: server needs at least one storage node")
	}
	if len(cfg.Peers) > 0 && (cfg.Self < 0 || cfg.Self >= len(cfg.Peers)) {
		return nil, fmt.Errorf("fs: self index %d outside peer list of %d", cfg.Self, len(cfg.Peers))
	}
	if cfg.Logger == nil {
		cfg.Logger = log.New(os.Stderr, "eevfs-server ", log.LstdFlags)
	}
	cfg.Health = cfg.Health.withDefaults()
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	s := &Server{
		cfg:    cfg,
		meta:   metadata.NewSharded(),
		clock:  NewClock(1),
		logger: cfg.Logger,
		stop:   make(chan struct{}),
	}
	switch cfg.Policy {
	case "", "static":
	case "adaptive":
		p := adaptive.Defaults()
		if cfg.AdaptiveParams != nil {
			p = *cfg.AdaptiveParams
		}
		if err := p.Validate(); err != nil {
			return nil, err
		}
		s.adParams = p
		s.churn = adaptive.NewChurn(p)
		s.buffered = make(map[int]bool)
		s.churnCh = make(chan int, 4096)
		k := cfg.AdaptiveK
		if k <= 0 {
			k = 32
		}
		s.lastK.Store(int64(k))
	default:
		return nil, fmt.Errorf("fs: unknown policy %q (want static or adaptive)", cfg.Policy)
	}
	s.met = newOpMetrics(cfg.Metrics, "server", []proto.Type{
		proto.TCreateReq, proto.TLookupReq, proto.TListReq, proto.TDeleteReq,
		proto.TPrefetchReq, proto.TStatsReq,
	})
	s.healthTransitions = cfg.Metrics.Counter("server.health.transitions")
	s.healthyNodes = cfg.Metrics.Gauge("server.nodes.healthy")
	s.healthyNodes.Set(float64(len(cfg.NodeAddrs)))
	s.accessCtr = cfg.Metrics.Counter("server.accesses")
	s.reprefetches = cfg.Metrics.Counter("server.adaptive.reprefetches")
	s.churnDropped = cfg.Metrics.Counter("server.adaptive.churn.dropped")
	s.replLag = cfg.Metrics.Gauge("server.repl.lag")
	s.roleG = cfg.Metrics.Gauge("server.repl.primary")
	s.failoversC = cfg.Metrics.Counter("server.repl.failovers")
	s.replBatch = cfg.Metrics.Histogram("server.repl.batch", []float64{1, 2, 4, 8, 16, 32, 64, 128})
	s.logBytesC = cfg.Metrics.Counter("persist.log.bytes")
	s.checkpointsC = cfg.Metrics.Counter("persist.checkpoints")
	for i, addr := range cfg.NodeAddrs {
		tc := cfg.Transport
		tc.Seed = cfg.Transport.Seed + int64(i) + 1 // decorrelate per-node jitter
		tc.Metrics = cfg.Metrics                    // node round trips feed proto.rt.*
		probeCfg := tc
		probeCfg.Retries = -1  // probes are frequent; one attempt each
		probeCfg.Metrics = nil // keep the per-second probe chatter out of the RPC metrics
		s.nodes = append(s.nodes, &nodeHandle{
			addr:  addr,
			ep:    proto.NewEndpoint(addr, cfg.Dialer, tc),
			probe: proto.NewEndpoint(addr, cfg.Dialer, probeCfg),
		})
		s.placements = append(s.placements,
			cfg.Metrics.Counter(fmt.Sprintf("server.placement.node%d", i)))
	}
	if err := s.openState(); err != nil {
		return nil, err
	}
	s.initReplication()
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Addr)
		if err != nil {
			if s.wal != nil {
				s.wal.Close()
			}
			return nil, err
		}
	}
	// The metadata server has no data plane: nil stream handler, so
	// stream opens are rejected with a typed error.
	s.lis.listen(ln, s.logger.Printf, func(conn net.Conn) {
		serveFrames(conn, s.cfg.WriteTimeout, s.dispatch, nil)
	})
	if s.churn != nil {
		s.wg.Add(1)
		go s.churnLoop()
	}
	if cfg.Health.ProbeInterval > 0 {
		s.probeWg.Add(1)
		go s.probeLoop()
	}
	if len(s.peers) > 0 {
		s.repWg.Add(1)
		go s.repLoop()
	}
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.lis.Addr() }

// Close stops the daemon and drains connections.
func (s *Server) Close() error {
	first, err := s.lis.shut()
	if !first {
		return nil
	}
	close(s.stop)
	s.lis.wait()
	s.wg.Wait()
	s.probeWg.Wait()
	s.repWg.Wait()
	for _, h := range s.nodes {
		h.ep.Close()
		h.probe.Close()
	}
	for _, p := range s.peers {
		if p != nil {
			p.ep.Close()
			p.probe.Close()
		}
	}
	if cerr := s.closeState(); err == nil {
		err = cerr
	}
	return err
}

// roundTripCtx runs one request on a node's main connection and feeds
// the outcome into its health state. Under a parent span the RPC gets a
// child span of its own and carries that child's context to the node,
// so the node's server-side span parents correctly under this hop.
func (s *Server) roundTripCtx(h *nodeHandle, t proto.Type, payload []byte, parent *telemetry.Span) (proto.Type, []byte, error) {
	sp := s.cfg.Tracer.StartChild(parent.Context(), "server", "node."+opName(t))
	sp.Annotate("peer", h.addr)
	rt, rp, err := h.ep.CallCtx(t, payload, sp.Context())
	sp.End(err)
	s.noteNode(h, err)
	return rt, rp, err
}

func (s *Server) noteNode(h *nodeHandle, err error) {
	switch h.note(err, s.cfg.Health.FailThreshold) {
	case -1:
		s.logger.Printf("node %s marked unhealthy: %v", h.addr, err)
		s.healthTransitions.Inc()
		s.healthyNodes.Add(-1)
	case +1:
		s.logger.Printf("node %s recovered", h.addr)
		s.healthTransitions.Inc()
		s.healthyNodes.Add(1)
	}
}

// probeLoop pings every node each interval on its dedicated probe
// connection: detection for partitions no client is exercising, and the
// recovery path for nodes marked unhealthy.
func (s *Server) probeLoop() {
	defer s.probeWg.Done()
	ticker := time.NewTicker(s.cfg.Health.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
		}
		// Only the primary owns the node-health relationship; a follower
		// inherits a fresh view through the probe round its promotion
		// runs (node re-registration on primary change).
		if !s.isPrimary() {
			continue
		}
		s.probeNodesOnce()
	}
}

// probeNodesOnce probes all nodes concurrently: detection latency stays
// one round trip even on wide clusters. Also the "re-register every
// node" step a freshly promoted primary runs.
func (s *Server) probeNodesOnce() {
	var wg sync.WaitGroup
	for _, h := range s.nodes {
		wg.Add(1)
		go func(h *nodeHandle) {
			defer wg.Done()
			_, _, err := h.probe.Call(proto.TNodeStatsReq, nil)
			s.noteNode(h, err)
		}(h)
	}
	wg.Wait()
}

// Healthy reports each node's current health (index-aligned with the
// configured NodeAddrs).
func (s *Server) Healthy() []bool {
	out := make([]bool, len(s.nodes))
	for i, h := range s.nodes {
		out[i] = h.healthy()
	}
	return out
}

func (s *Server) dispatch(t proto.Type, payload []byte, sc telemetry.SpanContext) (proto.Type, []byte, error) {
	start := time.Now()
	sp := s.cfg.Tracer.StartRemote(sc, "server", "server."+opName(t))
	rt, rp, err := s.dispatchInner(t, payload, sp)
	s.met.observe(t, time.Since(start), err)
	sp.End(err)
	return rt, rp, err
}

func (s *Server) dispatchInner(t proto.Type, payload []byte, sp *telemetry.Span) (proto.Type, []byte, error) {
	// Replication frames are server-to-server and valid in every role;
	// status must stay answerable even mid-election.
	switch t {
	case proto.TRepStatusReq:
		return proto.TRepStatusResp, s.handleRepStatus().Encode(), nil
	case proto.TRepAppendReq:
		req, err := proto.DecodeRepAppendReq(payload)
		if err != nil {
			return 0, nil, err
		}
		resp, err := s.handleRepAppend(req)
		if err != nil {
			return 0, nil, err
		}
		return proto.TRepAppendResp, resp.Encode(), nil
	case proto.TRepSnapshotReq:
		snap, err := proto.DecodeRepSnapshot(payload)
		if err != nil {
			return 0, nil, err
		}
		if err := s.handleRepSnapshot(snap); err != nil {
			return 0, nil, err
		}
		return proto.TRepSnapshotResp, nil, nil
	}

	// Client operations only run on the primary: a follower serving even
	// reads could hand out stale placement during a partition, so it
	// redirects everything.
	if len(s.peers) > 0 && !s.isPrimary() {
		return 0, nil, s.notPrimaryErr()
	}

	switch t {
	case proto.TCreateReq:
		req, err := proto.DecodeCreateReq(payload)
		if err != nil {
			return 0, nil, err
		}
		resp, err := s.handleCreate(req, sp)
		if err != nil {
			return 0, nil, err
		}
		return proto.TCreateResp, resp.Encode(), nil

	case proto.TLookupReq:
		req, err := proto.DecodeLookupReq(payload)
		if err != nil {
			return 0, nil, err
		}
		resp, err := s.handleLookup(req)
		if err != nil {
			return 0, nil, err
		}
		return proto.TLookupResp, resp.Encode(), nil

	case proto.TLookupWriteReq:
		req, err := proto.DecodeLookupReq(payload)
		if err != nil {
			return 0, nil, err
		}
		resp, err := s.handleLookupWrite(req, sp)
		if err != nil {
			return 0, nil, err
		}
		return proto.TLookupResp, resp.Encode(), nil

	case proto.TListReq:
		return proto.TListResp, proto.ListResp{Names: s.meta.Names()}.Encode(), nil

	case proto.TDeleteReq:
		req, err := proto.DecodeDeleteReq(payload)
		if err != nil {
			return 0, nil, err
		}
		if err := s.handleDelete(req, sp); err != nil {
			return 0, nil, err
		}
		return proto.TDeleteResp, nil, nil

	case proto.TPrefetchReq:
		req, err := proto.DecodePrefetchReq(payload)
		if err != nil {
			return 0, nil, err
		}
		count, err := s.handlePrefetch(int(req.K), sp)
		if err != nil {
			return 0, nil, err
		}
		return proto.TPrefetchResp, proto.PrefetchResp{Prefetched: count}.Encode(), nil

	case proto.TStatsReq:
		resp, err := s.handleStats(sp)
		if err != nil {
			return 0, nil, err
		}
		return proto.TStatsResp, resp.Encode(), nil

	default:
		return 0, nil, fmt.Errorf("fs: server got unexpected message type %d", t)
	}
}

// pickNode chooses the next healthy node round-robin (creation order
// embodies popularity order, Section IV-A; unhealthy nodes are skipped so
// new files land only where they can be written — degraded-mode
// placement). Lock-free: the cursor is an atomic, so concurrent creates
// each claim a distinct slot.
func (s *Server) pickNode() (int, error) {
	for i := 0; i < len(s.nodes); i++ {
		idx := int((s.nextNode.Add(1) - 1) % int64(len(s.nodes)))
		if s.nodes[idx].healthy() {
			return idx, nil
		}
	}
	return 0, fmt.Errorf("fs: %w: all %d storage nodes unhealthy",
		ErrNodeUnavailable, len(s.nodes))
}

// handleCreate assigns the next healthy node, registers metadata, and
// tells the node. The name is claimed atomically via PutIfAbsent before
// the node RPC — of N racing creates of one name, exactly one wins and
// the rest fail with "already exists"; a failed node RPC rolls the claim
// back.
func (s *Server) handleCreate(req proto.CreateReq, sp *telemetry.Span) (proto.CreateResp, error) {
	if req.Name == "" {
		return proto.CreateResp{}, errors.New("fs: empty file name")
	}
	if req.Size <= 0 {
		return proto.CreateResp{}, fmt.Errorf("fs: create %q with size %d", req.Name, req.Size)
	}

	nodeIdx, err := s.pickNode()
	if err != nil {
		return proto.CreateResp{}, err
	}
	id := s.nextID.Add(1) - 1
	s.pop.slot(id).size.Store(req.Size)

	claimed, err := s.meta.PutIfAbsent(metadata.FileInfo{
		Name: req.Name, ID: int(id), Size: req.Size, Node: nodeIdx,
	})
	if err != nil {
		return proto.CreateResp{}, err
	}
	if !claimed {
		return proto.CreateResp{}, fmt.Errorf("fs: file %q already exists", req.Name)
	}

	h := s.nodes[nodeIdx]
	s.placements[nodeIdx].Inc()
	if _, _, err := s.roundTripCtx(h, proto.TNodeCreateReq,
		proto.NodeCreateReq{FileID: id, Size: req.Size}.Encode(), sp); err != nil {
		s.meta.Delete(req.Name) // roll back the claim; the id slot is burned
		return proto.CreateResp{}, err
	}
	// Replicate before acking: once the client sees success, the create
	// survives a primary crash as long as one in-sync follower does.
	s.commit(proto.RepOp{
		Kind: proto.RepOpCreate, Name: req.Name, ID: id, Size: req.Size,
		Node: int64(nodeIdx), Cursor: s.nextNode.Load(),
	}, sp)
	return proto.CreateResp{FileID: id, NodeAddr: h.addr}, nil
}

// handleLookup resolves a name and counts the access (the fold of
// Section IV's append-only request log). Lookups of files on unhealthy nodes
// fall back to a buffer-disk replica when mirroring has placed one on a
// healthy node; otherwise they fail fast with a typed unavailable error
// instead of handing the client an address that would hang it.
func (s *Server) handleLookup(req proto.LookupReq) (proto.LookupResp, error) {
	fi, ok := s.meta.LookupName(req.Name)
	if !ok {
		return proto.LookupResp{}, fmt.Errorf("fs: %w %q", ErrFileNotFound, req.Name)
	}
	h := s.nodes[fi.Node]
	if !h.healthy() {
		ridx, hasReplica := fi.ReplicaNode()
		if !hasReplica || ridx >= len(s.nodes) || !s.nodes[ridx].healthy() {
			return proto.LookupResp{}, fmt.Errorf("fs: %w: file %q is on node %s",
				ErrNodeUnavailable, req.Name, h.addr)
		}
		h = s.nodes[ridx] // degraded read from the mirror copy
	}
	s.journalAccess(fi)
	return proto.LookupResp{
		FileID:   int64(fi.ID),
		Size:     fi.Size,
		NodeAddr: h.addr,
	}, nil
}

// handleLookupWrite resolves a name for a client about to overwrite the
// file. It never routes to a replica (writes go to the owner only), and
// it invalidates any recorded mirror first — the write is about to make
// that copy stale, and a reader redirected there later must not see old
// bytes.
func (s *Server) handleLookupWrite(req proto.LookupReq, sp *telemetry.Span) (proto.LookupResp, error) {
	fi, ok := s.meta.LookupName(req.Name)
	if !ok {
		return proto.LookupResp{}, fmt.Errorf("fs: %w %q", ErrFileNotFound, req.Name)
	}
	h := s.nodes[fi.Node]
	if !h.healthy() {
		return proto.LookupResp{}, fmt.Errorf("fs: %w: file %q is on node %s",
			ErrNodeUnavailable, req.Name, h.addr)
	}
	if ridx, hasReplica := fi.ReplicaNode(); hasReplica {
		fi.Replica = 0
		if err := s.meta.Put(fi); err != nil {
			return proto.LookupResp{}, err
		}
		s.commit(proto.RepOp{Kind: proto.RepOpReplica, Name: fi.Name, Replica: 0}, sp)
		if ridx < len(s.nodes) {
			// Best-effort space reclaim on the mirror; the marker is
			// already gone, so a failure only leaves an orphaned copy.
			s.dropMirror(s.nodes[ridx], fi.ID)
		}
	}
	s.journalAccess(fi)
	return proto.LookupResp{
		FileID:   int64(fi.ID),
		Size:     fi.Size,
		NodeAddr: h.addr,
	}, nil
}

// dropMirror deletes file id's copy on mirror node h in the background.
// The goroutine is the server's own: Close waits for it before it closes
// the endpoint the round trip runs on.
func (s *Server) dropMirror(h *nodeHandle, id int) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.roundTripCtx(h, proto.TNodeDeleteReq, proto.NodeDeleteReq{FileID: int64(id)}.Encode(), nil)
	}()
}

// journalAccess folds one access to fi into its popularity slot and,
// under the adaptive policy, hands the access to the churn loop — the
// lookup hot path takes no lock and waits on no detector.
func (s *Server) journalAccess(fi metadata.FileInfo) {
	s.pop.slot(int64(fi.ID)).note(float64(s.clock.Now()))
	s.accessCtr.Inc()
	if s.churn == nil {
		return
	}
	select {
	case s.churnCh <- fi.ID:
	default:
		s.churnDropped.Inc()
	}
}

// churnLoop is the single consumer of churnCh: it scores each observed
// access against the buffered set and kicks off a background
// re-prefetch when the detector fires.
func (s *Server) churnLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case id := <-s.churnCh:
			s.churnMu.Lock()
			fire := s.churn.Observe(id, s.buffered[id])
			s.churnMu.Unlock()
			if fire && s.primary.Load() && s.adBusy.CompareAndSwap(false, true) {
				s.wg.Add(1)
				go s.adaptiveRecompute()
			}
		}
	}
}

// adaptiveRecompute is the churn-triggered re-prefetch: rank the files
// seen in the detector's recent window (not whole-history counts — the
// point is to chase the hot set as it moves), command the nodes through
// the same fan-out a client-issued prefetch uses, and record the new
// buffered set. Single-flight via adBusy; failures are logged, not
// fatal, and do not reset the detector, so a transient node error gets
// retried on the next trigger.
func (s *Server) adaptiveRecompute() {
	defer s.wg.Done()
	defer s.adBusy.Store(false)
	select {
	case <-s.stop:
		return
	default:
	}
	s.churnMu.Lock()
	counts := s.churn.Counts()
	s.churnMu.Unlock()
	ids := prefetch.SelectWindowed(counts, s.adParams.MinFetchHits, int(s.lastK.Load()))
	if len(ids) == 0 {
		return
	}
	// Counted at command time: a concurrent read may be served from a
	// freshly staged buffer before the whole fan-out returns.
	s.reprefetches.Inc()
	if _, err := s.commandPrefetch(ids, nil); err != nil {
		s.logger.Printf("adaptive reprefetch: %v", err)
		return
	}
	s.noteBuffered(ids)
}

// noteBuffered replaces the buffered-set snapshot the churn detector
// scores hits against and starts its cooldown.
func (s *Server) noteBuffered(ids []int) {
	if s.churn == nil {
		return
	}
	set := make(map[int]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	s.churnMu.Lock()
	s.buffered = set
	s.churn.Reset()
	s.churn.Rescore(func(fid int) bool { return set[fid] })
	s.churnMu.Unlock()
}

func (s *Server) handleDelete(req proto.DeleteReq, sp *telemetry.Span) error {
	fi, ok := s.meta.LookupName(req.Name)
	if !ok {
		return fmt.Errorf("fs: %w %q", ErrFileNotFound, req.Name)
	}
	h := s.nodes[fi.Node]
	if !h.healthy() {
		return fmt.Errorf("fs: %w: file %q is on node %s",
			ErrNodeUnavailable, req.Name, h.addr)
	}
	if _, _, err := s.roundTripCtx(h, proto.TNodeDeleteReq,
		proto.NodeDeleteReq{FileID: int64(fi.ID)}.Encode(), sp); err != nil {
		return err
	}
	if ridx, hasReplica := fi.ReplicaNode(); hasReplica && ridx < len(s.nodes) {
		// Drop the mirror copy too; best effort, the namespace entry is
		// going away regardless.
		s.dropMirror(s.nodes[ridx], fi.ID)
	}
	s.meta.Delete(req.Name)
	s.commit(proto.RepOp{Kind: proto.RepOpDelete, Name: req.Name}, sp)
	return nil
}

// handlePrefetch ranks files by logged popularity, picks the global top
// K, groups the picks by owning node, and commands each node (steps 2-3
// of the process flow). Unhealthy nodes are skipped — a degraded cluster
// still prefetches everywhere it can.
func (s *Server) handlePrefetch(k int, sp *telemetry.Span) (int64, error) {
	if k < 0 {
		return 0, fmt.Errorf("fs: negative prefetch count %d", k)
	}
	// Ship the popularity observed since the last epoch to the followers
	// first: if this primary dies right after prefetching, its successor
	// ranks files from the same evidence.
	s.flushAccessEpoch()
	counts, sizes := s.popularity()
	ids, err := prefetch.Select(counts, sizes, k, 0)
	if err != nil {
		return 0, err
	}
	if k > 0 {
		s.lastK.Store(int64(k)) // the operator's depth becomes the adaptive cap
	}
	total, err := s.commandPrefetch(ids, sp)
	if err == nil {
		s.noteBuffered(ids)
	}
	return total, err
}

// popularity returns every file id's access count and size, the inputs
// of the ranking: a consistent-enough snapshot without any lock. The id
// horizon is loaded first, so a file created after it simply misses this
// prefetch round; a file mid-create reads count 0 and is never selected
// (Select skips zero-count files).
func (s *Server) popularity() (counts []int, sizes []int64) {
	numFiles := s.nextID.Load()
	counts, sizes = make([]int, numFiles), make([]int64, numFiles)
	s.pop.each(numFiles, func(id int64, sl *popSlot) {
		counts[id], sizes[id] = int(sl.count.Load()), sl.size.Load()
	})
	return counts, sizes
}

// fanOut runs call(i, h) concurrently for every healthy node i that pick
// selects (nil = every node) — each node's RPC rides its own multiplexed
// endpoint, so a slow spindle on one node does not serialize the round —
// and, once all have returned, reports the error of the lowest-indexed
// node that failed, so the error a caller sees is deterministic. call
// leaves its result in a slot of its own node. An unhealthy node is not
// called, after skip (when not nil) has logged it: a degraded cluster
// still does everywhere what it can.
func (s *Server) fanOut(pick func(i int) bool, skip func(i int, h *nodeHandle), call func(i int, h *nodeHandle) error) error {
	errs := make([]error, len(s.nodes))
	var wg sync.WaitGroup
	for i, h := range s.nodes {
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

// commandPrefetch groups the selected ids by owning node, commands each
// node's staging concurrently, forwards access-pattern hints, and
// mirrors when configured — the fan-out shared by client-issued and
// adaptive re-prefetches.
func (s *Server) commandPrefetch(ids []int, sp *telemetry.Span) (int64, error) {
	perNode := make([][]int64, len(s.nodes))
	for _, id := range ids {
		fi, ok := s.meta.LookupID(id)
		if !ok {
			continue // deleted since it was accessed
		}
		perNode[fi.Node] = append(perNode[fi.Node], int64(id))
	}

	counts := make([]int64, len(s.nodes))
	err := s.fanOut(
		func(i int) bool { return len(perNode[i]) > 0 },
		func(i int, h *nodeHandle) {
			s.logger.Printf("prefetch: skipping unhealthy node %s (%d files)", h.addr, len(perNode[i]))
		},
		func(i int, h *nodeHandle) error {
			_, payload, err := s.roundTripCtx(h, proto.TNodePrefetchReq,
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
	hints := s.hintsPerNode()
	s.fanOut(
		func(i int) bool { return len(hints[i]) > 0 },
		nil,
		func(i int, h *nodeHandle) error {
			if _, _, err := s.roundTripCtx(h, proto.TNodeHintsReq,
				proto.NodeHintsReq{Hints: hints[i]}.Encode(), sp); err != nil {
				s.logger.Printf("forwarding hints to node %d: %v", i, err)
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
	if len(s.nodes) < 2 {
		return
	}
	for _, id := range ids {
		fi, ok := s.meta.LookupID(id)
		if !ok {
			continue // deleted since selection
		}
		if ridx, has := fi.ReplicaNode(); has && ridx < len(s.nodes) && s.nodes[ridx].healthy() {
			continue // already mirrored somewhere usable
		}
		owner := s.nodes[fi.Node]
		if !owner.healthy() {
			continue
		}
		mirror := -1
		for j := 1; j < len(s.nodes); j++ {
			cand := (fi.Node + j) % len(s.nodes)
			if cand != fi.Node && s.nodes[cand].healthy() {
				mirror = cand
				break
			}
		}
		if mirror < 0 {
			continue
		}
		if err := s.copyToMirror(fi, mirror, sp); err != nil {
			s.logger.Printf("mirror %s to node %d: %v", fi.Name, mirror, err)
			continue
		}
		// Re-read before marking: the file may have been deleted or
		// recreated under the same name while the bytes moved.
		cur, ok := s.meta.LookupName(fi.Name)
		if !ok || cur.ID != fi.ID {
			continue
		}
		cur.Replica = mirror + 1
		if err := s.meta.Put(cur); err != nil {
			continue
		}
		s.commit(proto.RepOp{Kind: proto.RepOpReplica, Name: cur.Name, Replica: int64(mirror + 1)}, sp)
	}
}

// copyToMirror moves one file's bytes owner -> server -> mirror, then
// has the mirror stage them on its buffer disk (the paper's prefetch
// mechanics reused for the replica).
func (s *Server) copyToMirror(fi metadata.FileInfo, mirror int, sp *telemetry.Span) error {
	_, payload, err := s.roundTripCtx(s.nodes[fi.Node], proto.TNodeReadReq,
		proto.NodeReadReq{FileID: int64(fi.ID)}.Encode(), sp)
	if err != nil {
		return err
	}
	data, err := proto.DecodeNodeReadResp(payload)
	if err != nil {
		return err
	}
	mh := s.nodes[mirror]
	if _, _, err := s.roundTripCtx(mh, proto.TNodeCreateReq,
		proto.NodeCreateReq{FileID: int64(fi.ID), Size: int64(len(data.Data))}.Encode(), sp); err != nil {
		return err
	}
	_, wp, err := s.roundTripCtx(mh, proto.TNodeWriteReq,
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
		if _, _, err := s.roundTripCtx(mh, proto.TNodePrefetchReq,
			proto.NodePrefetchReq{FileIDs: []int64{int64(fi.ID)}}.Encode(), sp); err != nil {
			return err
		}
	}
	return nil
}

// hintsPerNode derives each file's mean request inter-arrival from its
// access fold and groups the hints by owning node. Files seen fewer than
// twice yield no estimate.
func (s *Server) hintsPerNode() map[int][]proto.FileHint {
	out := make(map[int][]proto.FileHint)
	s.pop.each(s.nextID.Load(), func(id int64, sl *popSlot) {
		count, first, last := sl.live()
		if count < 2 || last <= first {
			return
		}
		fi, ok := s.meta.LookupID(int(id))
		if !ok {
			return
		}
		out[fi.Node] = append(out[fi.Node], proto.FileHint{
			FileID:          id,
			MeanIntervalSec: (last - first) / float64(count-1),
		})
	})
	return out
}

// handleStats gathers per-disk stats from every healthy node (fanOut),
// prefixing disk names with the node index and folding the results in
// node order, so the response layout does not depend on which node
// answered first.
func (s *Server) handleStats(sp *telemetry.Span) (proto.StatsResp, error) {
	perNode := make([]proto.StatsResp, len(s.nodes))
	err := s.fanOut(nil,
		func(_ int, h *nodeHandle) { s.logger.Printf("stats: skipping unhealthy node %s", h.addr) },
		func(i int, h *nodeHandle) error {
			_, payload, err := s.roundTripCtx(h, proto.TNodeStatsReq, nil, sp)
			if err != nil {
				return fmt.Errorf("fs: stats from node %d: %w", i, err)
			}
			perNode[i], err = proto.DecodeStatsResp(payload)
			return err
		})
	if err != nil {
		return proto.StatsResp{}, err
	}

	var out proto.StatsResp
	for i, resp := range perNode {
		for _, ds := range resp.Disks {
			ds.Name = fmt.Sprintf("node%d/%s", i, ds.Name)
			out.Disks = append(out.Disks, ds)
		}
		for _, c := range resp.Counters {
			c.Name = fmt.Sprintf("node%d/%s", i, c.Name)
			out.Counters = append(out.Counters, c)
		}
	}
	// The server's own telemetry counters ride along un-prefixed (their
	// names already carry the server./proto. namespaces).
	if reg := s.cfg.Metrics; reg != nil {
		for _, name := range reg.CounterNames() {
			out.Counters = append(out.Counters,
				proto.CounterStat{Name: name, Value: reg.Counter(name).Value()})
		}
	}
	return out, nil
}

// AccessCount reports the number of accesses counted, summed over the
// files (for tests).
func (s *Server) AccessCount() int {
	var n int64
	s.pop.each(s.nextID.Load(), func(_ int64, sl *popSlot) { n += sl.count.Load() })
	return int(n)
}

// Files returns a snapshot of the server's metadata records, in name
// order. The simulation-testing harness compares this view against each
// node's local metadata after chaos runs; a file the server claims must
// exist on the node it names, with the same size.
func (s *Server) Files() []metadata.FileInfo {
	names := s.meta.Names()
	out := make([]metadata.FileInfo, 0, len(names))
	for _, name := range names {
		if fi, ok := s.meta.LookupName(name); ok {
			out = append(out, fi)
		}
	}
	return out
}

package fs

import (
	"cmp"
	"errors"
	"fmt"
	"log"
	"maps"
	"net"
	"os"
	"sync"
	"time"

	"eevfs/internal/adaptive"
	"eevfs/internal/metadata"
	"eevfs/internal/proto"
	"eevfs/internal/telemetry"
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

	// listener, when set, is used instead of listening on Addr: StartLocal
	// binds every member's before any member starts.
	listener net.Listener
}

// Server is a running storage-server daemon: the listener, its op table
// (ops) from frames to handlers, and the four parts the handlers work
// with (DESIGN.md §17) — the namespace they change, the replicated log
// that makes a change durable, the node set they route to, and the
// prefetch policy.
//
// Concurrency model: there is no global server mutex and Server owns no
// lock at all. Independent client operations on different files contend
// only where the log orders them (replog.mu) and on a node's health word.
type Server struct {
	cfg   ServerConfig
	lis   listener
	clock *Clock

	ns     *namespace
	log    *replog
	nodes  *nodeSet
	policy *reprefetcher // nil = static
	peers  []link        // the other group members' endpoints (closed by Close)

	accessCtr *telemetry.Counter

	wg   sync.WaitGroup // the heartbeat, the policy loop, mirror deletes
	stop chan struct{}

	// afterClaim, when set, runs between a change's transition and its
	// commit: the stale-location tests stop a primary there.
	afterClaim func(op proto.RepOp)
	// plantCacheAll is the stale-location oracles' planted bug: every
	// lookup answer is cacheable, a mirror's and an uncommitted create's.
	plantCacheAll bool
}

// bootProbeTimeout bounds the dial and the round trip of the start-up
// discovery probes (a shorter configured timeout still wins): when a
// whole group boots at once a peer's listener may be bound but not yet
// serving, and waiting out the full round-trip timeout on it stalled
// every start by ~10 s. A primary that is really running answers a status
// probe well inside the bound.
const bootProbeTimeout = 500 * time.Millisecond

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
	policy, err := newReprefetcher(cfg)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:       cfg,
		clock:     NewClock(1),
		ns:        newNamespace(len(cfg.NodeAddrs)),
		nodes:     newNodeSet(cfg),
		policy:    policy,
		accessCtr: cfg.Metrics.Counter("server.accesses"),
		stop:      make(chan struct{}),
	}

	// The replication plane: a link per other group member, plus — for the
	// discovery round of boot only — a status probe on short deadlines.
	peers, boot := make([]*peer, len(cfg.Peers)), make([]caller, len(cfg.Peers))
	for i, addr := range cfg.Peers {
		if i == cfg.Self {
			continue
		}
		lk := newLink(cfg, addr, len(cfg.NodeAddrs)+i)
		s.peers = append(s.peers, lk)
		peers[i] = &peer{addr: addr, ep: lk.ep, probe: lk.probe}
		bootCfg := cfg.Transport
		bootCfg.Retries = -1
		bootCfg.DialTimeout = min(cmp.Or(bootCfg.DialTimeout, bootProbeTimeout), bootProbeTimeout)
		bootCfg.RTTimeout = min(cmp.Or(bootCfg.RTTimeout, bootProbeTimeout), bootProbeTimeout)
		ep := proto.NewEndpoint(addr, cfg.Dialer, bootCfg)
		defer ep.Close()
		boot[i] = ep
	}
	if s.log, err = openReplog(cfg, s.ns, peers); err != nil {
		return nil, err
	}
	s.log.onPromote = s.nodes.probeAll // re-register the nodes: a fresh health view before the first client lands
	s.log.boot(boot)

	ln := cfg.listener
	if ln == nil {
		if ln, err = net.Listen("tcp", cfg.Addr); err != nil {
			s.log.close()
			return nil, err
		}
	}
	ops := newOpTable("server", cfg.Metrics, cfg.Tracer, s.ops())
	s.lis.listen(ln, s.cfg.Logger.Printf, func(conn net.Conn) {
		serveFrames(conn, s.cfg.WriteTimeout, ops)
	})
	if s.policy != nil {
		s.policy.s = s
		s.wg.Add(1)
		go s.policy.loop()
	}
	if cfg.Health.ProbeInterval > 0 || len(cfg.Peers) > 0 {
		s.wg.Add(1)
		go s.heartbeat()
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
	for _, h := range s.nodes.all {
		h.close()
	}
	for _, lk := range s.peers {
		lk.close()
	}
	if cerr := s.log.close(); err == nil {
		err = cerr
	}
	return err
}

// heartbeat is the server's one periodic duty cycle.
func (s *Server) heartbeat() {
	defer s.wg.Done()
	// With probing off (a negative interval) a group still beats, at 1 s.
	ticker := time.NewTicker(cmp.Or(max(s.cfg.Health.ProbeInterval, 0), time.Second))
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			s.tick()
		}
	}
}

// tick is one beat: the primary replicates the popularity it has counted,
// the log repairs followers (or, on a follower, watches the primary), and
// the primary — which alone owns the node-health relationship; a follower
// inherits a fresh view through the probe round of its promotion — probes
// the nodes, last, so a dead node's timeout delays no replication duty.
func (s *Server) tick() {
	s.flushAccessEpoch()
	s.log.tick()
	if s.cfg.Health.ProbeInterval > 0 && s.log.isPrimary() {
		s.nodes.probeAll()
	}
}

// flushAccessEpoch replicates the accesses counted since the last epoch.
func (s *Server) flushAccessEpoch() { s.log.propose(s.ns.accessEpoch) }

// Healthy reports each node's current health (index-aligned with the
// configured NodeAddrs).
func (s *Server) Healthy() []bool {
	out := make([]bool, len(s.nodes.all))
	for i, h := range s.nodes.all {
		out[i] = h.healthy()
	}
	return out
}

// ops is the server's op table: the client ops, which only the primary
// answers, and the group's peer frames (replog.ops), which every member
// answers in every role. The metadata server has no data plane: a stream
// open finds no row.
func (s *Server) ops() map[proto.Type]op {
	// A follower serving even reads could hand out stale placement during
	// a partition, so it redirects every client op.
	onPrimary := func(h handlerFunc) handlerFunc {
		return func(payload []byte, sp *telemetry.Span) (reply, error) {
			if !s.log.isPrimary() {
				return reply{}, s.log.notPrimaryErr()
			}
			return h(payload, sp)
		}
	}
	rows := map[proto.Type]op{
		proto.TCreateReq: {name: "create", rpc: onPrimary(answer(proto.DecodeCreateReq, proto.TCreateResp, s.handleCreate))},
		proto.TLookupReq: {name: "lookup", rpc: onPrimary(answer(proto.DecodeLookupReq, proto.TLookupResp,
			func(req proto.LookupReq, sp *telemetry.Span) (proto.LookupResp, error) {
				return s.handleLookup(req, false, sp)
			}))},
		proto.TLookupWriteReq: {name: "lookupwrite", rpc: onPrimary(answer(proto.DecodeLookupReq, proto.TLookupResp,
			func(req proto.LookupReq, sp *telemetry.Span) (proto.LookupResp, error) {
				return s.handleLookup(req, true, sp)
			}))},
		proto.TAccessReq: {name: "access", rpc: onPrimary(answer(proto.DecodeAccessReq, proto.TAccessResp, s.handleAccess))},
		proto.TListReq: {name: "list", rpc: onPrimary(func([]byte, *telemetry.Span) (reply, error) {
			return reply{t: proto.TListResp, body: proto.ListResp{Names: s.ns.meta.Names()}.Encode()}, nil
		})},
		proto.TDeleteReq:   {name: "delete", rpc: onPrimary(answer(proto.DecodeDeleteReq, proto.TDeleteResp, s.handleDelete))},
		proto.TPrefetchReq: {name: "prefetch", rpc: onPrimary(answer(proto.DecodePrefetchReq, proto.TPrefetchResp, s.handlePrefetch))},
		proto.TStatsReq: {name: "stats", rpc: onPrimary(func(_ []byte, sp *telemetry.Span) (reply, error) {
			resp, err := s.handleStats(sp)
			return reply{t: proto.TStatsResp, body: resp.Encode()}, err
		})},
	}
	maps.Copy(rows, s.log.ops())
	return rows
}

// handleCreate assigns the next healthy node, registers metadata, and
// tells the node — the RPC is the create transition's claim, so a failed
// one releases the name again.
func (s *Server) handleCreate(req proto.CreateReq, sp *telemetry.Span) (proto.CreateResp, error) {
	if req.Name == "" {
		return proto.CreateResp{}, errors.New("fs: empty file name")
	}
	if req.Size <= 0 {
		return proto.CreateResp{}, fmt.Errorf("fs: create %q with size %d", req.Name, req.Size)
	}
	nodeIdx, err := s.nodes.pick(&s.ns.nextNode)
	if err != nil {
		return proto.CreateResp{}, err
	}
	h := s.nodes.all[nodeIdx]
	op := proto.RepOp{
		Kind: proto.RepOpCreate, Name: req.Name, ID: s.ns.nextID.Add(1) - 1,
		Size: req.Size, Node: int64(nodeIdx), Cursor: s.ns.nextNode.Load(),
	}
	err = s.mutate(op, sp, func() error {
		h.placed.Inc()
		_, _, err := s.nodes.roundTrip(h, proto.TNodeCreateReq,
			proto.NodeCreateReq{FileID: op.ID, Size: req.Size}.Encode(), sp)
		return err
	})
	if err == nil {
		s.ns.pop.slot(op.ID).creating.Store(false)
	}
	return proto.CreateResp{FileID: op.ID, NodeAddr: h.addr}, err
}

// mutate is every change a client drives: the namespace undergoes op
// (claim: see namespace.transition), then the log commits it — replicated
// before the ack, so an acked change survives a primary crash as long as
// one in-sync follower does.
func (s *Server) mutate(op proto.RepOp, sp *telemetry.Span, claim func() error) error {
	if err := s.ns.transition(op, claim); err != nil {
		return err
	}
	if s.afterClaim != nil {
		s.afterClaim(op)
	}
	s.log.commit(op, sp)
	return nil
}

// resolve finds a file and the node that serves it: its owner or — for a
// read whose owner is unhealthy — a healthy node holding a mirror copy.
// Otherwise it fails fast with a typed unavailable error instead of
// handing the client an address that would hang it.
func (s *Server) resolve(name string, read bool) (metadata.FileInfo, *nodeHandle, error) {
	fi, ok := s.ns.meta.LookupName(name)
	if !ok {
		return fi, nil, fmt.Errorf("fs: %w %q", ErrFileNotFound, name)
	}
	h := s.nodes.all[fi.Node]
	if h.healthy() {
		return fi, h, nil
	}
	if ridx, has := fi.ReplicaNode(); read && has && ridx < len(s.nodes.all) && s.nodes.all[ridx].healthy() {
		return fi, s.nodes.all[ridx], nil // degraded read from the mirror copy
	}
	return fi, nil, fmt.Errorf("fs: %w: file %q is on node %s", ErrNodeUnavailable, name, h.addr)
}

// handleLookup resolves a name — for a reader or, under TLookupWriteReq,
// for a client about to overwrite the file — and counts the access (the
// fold of Section IV's append-only request log). A write never routes to
// a replica, and it invalidates any recorded mirror first: the write is
// about to make that copy stale, and a reader redirected there later must
// not see old bytes. The answer is cacheable when it names the owner and
// the file's create has committed: a client may then read the file again
// without asking, reporting those reads instead (handleAccess).
func (s *Server) handleLookup(req proto.LookupReq, write bool, sp *telemetry.Span) (proto.LookupResp, error) {
	fi, h, err := s.resolve(req.Name, !write)
	if err != nil {
		return proto.LookupResp{}, err
	}
	if ridx, hasReplica := fi.ReplicaNode(); write && hasReplica {
		if err := s.mutate(proto.RepOp{Kind: proto.RepOpReplica, Name: fi.Name}, sp, nil); err != nil {
			return proto.LookupResp{}, err
		}
		// Best-effort space reclaim on the mirror; the marker is already
		// gone, so a failure only leaves an orphaned copy.
		s.dropMirror(ridx, fi.ID)
	}
	s.journalAccess(fi)
	cacheable := h == s.nodes.all[fi.Node] && !s.ns.pop.slot(int64(fi.ID)).creating.Load()
	return proto.LookupResp{FileID: int64(fi.ID), Size: fi.Size, NodeAddr: h.addr, Cacheable: cacheable || s.plantCacheAll}, nil
}

// dropMirror deletes file id's copy on mirror node ridx in the
// background. The goroutine is the server's own: Close waits for it
// before it closes the endpoint the round trip runs on.
func (s *Server) dropMirror(ridx, id int) {
	if ridx >= len(s.nodes.all) {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.nodes.roundTrip(s.nodes.all[ridx], proto.TNodeDeleteReq, proto.NodeDeleteReq{FileID: int64(id)}.Encode(), nil)
	}()
}

// journalAccess folds one lookup of fi into its popularity slot and
// hands it to the adaptive policy's detector — the lookup hot path takes
// no lock and waits on nothing.
func (s *Server) journalAccess(fi metadata.FileInfo) {
	s.ns.pop.slot(int64(fi.ID)).note(float64(s.clock.Now()))
	s.accessCtr.Inc()
	s.policy.observe(fi.ID)
}

// handleAccess counts the reads a client served from its location cache:
// each file's report folds in as count accesses between now − first age
// and now − last age on the server's clock, and the detector sees them
// as one stream. An id the server has not given out is skipped — the
// table grows only by creates.
func (s *Server) handleAccess(req proto.AccessReq, _ *telemetry.Span) (noBody, error) {
	now, scale, horizon := float64(s.clock.Now()), s.clock.Scale(), s.ns.nextID.Load()
	recs := req.Records[:0]
	for _, r := range req.Records {
		if r.FileID >= horizon {
			continue
		}
		s.ns.pop.slot(r.FileID).fold(r.Count, max(0, now-r.FirstAge*scale), max(0, now-r.LastAge*scale))
		s.accessCtr.Add(r.Count)
		recs = append(recs, r)
	}
	s.policy.observeReport(recs)
	return noBody{}, nil
}

func (s *Server) handleDelete(req proto.DeleteReq, sp *telemetry.Span) (noBody, error) {
	fi, h, err := s.resolve(req.Name, false)
	if err != nil {
		return noBody{}, err
	}
	if _, _, err := s.nodes.roundTrip(h, proto.TNodeDeleteReq,
		proto.NodeDeleteReq{FileID: int64(fi.ID)}.Encode(), sp); err != nil {
		return noBody{}, err
	}
	if ridx, hasReplica := fi.ReplicaNode(); hasReplica {
		// Drop the mirror copy too; best effort, the namespace entry is
		// going away regardless.
		s.dropMirror(ridx, fi.ID)
	}
	return noBody{}, s.mutate(proto.RepOp{Kind: proto.RepOpDelete, Name: req.Name}, sp, nil)
}

// handleStats gathers per-disk stats from every healthy node (fanOut),
// prefixing disk names with the node index and folding the results in
// node order, so the response layout does not depend on which node
// answered first.
func (s *Server) handleStats(sp *telemetry.Span) (proto.StatsResp, error) {
	perNode := make([]proto.StatsResp, len(s.nodes.all))
	err := s.nodes.fanOut(nil,
		func(_ int, h *nodeHandle) { s.cfg.Logger.Printf("stats: skipping unhealthy node %s", h.addr) },
		func(i int, h *nodeHandle) error {
			_, payload, err := s.nodes.roundTrip(h, proto.TNodeStatsReq, nil, sp)
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
	s.ns.pop.each(s.ns.nextID.Load(), func(_ int64, sl *popSlot) { n += sl.count.Load() })
	return int(n)
}

// Files returns a snapshot of the server's metadata records, in name
// order. The simulation-testing harness compares this view against each
// node's local metadata after chaos runs; a file the server claims must
// exist on the node it names, with the same size.
func (s *Server) Files() []metadata.FileInfo { return s.ns.files() }

// IsPrimary reports whether this server currently accepts client
// mutations (tests and operators poll it across failovers). Standalone
// servers always do.
func (s *Server) IsPrimary() bool { return s.log.isPrimary() }

// ReplStatus exposes the replication position for tests and telemetry
// scraping: role, epoch, and last applied op seq.
func (s *Server) ReplStatus() (primary bool, epoch, seq uint64) {
	st := s.log.status()
	return st.Primary, st.Epoch, st.Seq
}

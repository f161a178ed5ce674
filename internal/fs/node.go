package fs

import (
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"eevfs/internal/disk"
	"eevfs/internal/metadata"
	"eevfs/internal/proto"
	"eevfs/internal/simtime"
	"eevfs/internal/telemetry"
	"eevfs/internal/wal"
)

// NodeConfig configures one storage-node daemon.
type NodeConfig struct {
	// Addr is the TCP listen address ("127.0.0.1:0" for an ephemeral
	// test port).
	Addr string
	// RootDir holds the disk directories: data0..dataN-1 and buffer.
	RootDir string
	// DataDisks is the number of data disks (directories).
	DataDisks int
	// DataModel and BufferModel are the drive models backing latency
	// injection and energy accounting.
	DataModel   disk.Model
	BufferModel disk.Model
	// IdleThresholdSec sends a data disk to standby after this much model
	// time without requests (Section III-C). Zero disables DPM.
	IdleThresholdSec float64
	// TimeScale is model seconds per real second (see Clock).
	TimeScale float64
	// InjectLatency sleeps the modeled service and transition times.
	// Disable only for benchmarks of the protocol itself.
	InjectLatency bool
	// WriteBuffer stores incoming writes on the buffer disk's log and
	// flushes them to the data disk lazily (Section III-C).
	WriteBuffer bool
	// BufferCapacityBytes bounds the buffer disk's occupancy (prefetched
	// copies plus unflushed buffered writes). Zero means unbounded —
	// directories have no spindle-sized limit, but a deployment standing
	// in for a real drive should set this.
	BufferCapacityBytes int64
	// StripeChunkBytes stripes file content across the node's data disks
	// in chunks of this size (the paper's Section VII striping proposal).
	// Chunk reads and writes proceed in parallel across the spindles.
	// Zero stores each file whole on one data disk.
	StripeChunkBytes int64
	// StreamChunkBytes is the node's preferred data-frame size for the
	// streaming read/write path (DESIGN.md §19); a client's explicit
	// chunk-size request wins. Zero means proto.DefaultStreamChunk.
	StreamChunkBytes int64
	// WriteTimeout bounds writing one response frame, so a stalled or
	// partitioned peer cannot pin a serving goroutine (default 30s).
	WriteTimeout time.Duration
	// Logger receives operational messages (nil = log.Default).
	Logger *log.Logger
	// Metrics, when set, receives the node's telemetry: per-op latency
	// histograms and error counters (node.op.*), buffer hit/miss/write
	// counters (node.buffer.*), and power-state transition accounting
	// (node.disk.*). Nil disables instrumentation.
	Metrics *telemetry.Registry
	// Tracer, when set, records a span per handled request (joined to
	// the caller's trace when the frame carried a context) plus disk-level
	// child spans covering spin-ups and service time. Nil disables tracing.
	Tracer *telemetry.Tracer
	// Energy, when set, receives the per-request joule attribution joined
	// from the disks' transition observers: every dwell a disk closes
	// while serving a request is charged to that request's trace and
	// file; idle, standby, and spin-down dwells are charged to the
	// background bucket. Nil disables the join.
	Energy *telemetry.EnergyLedger
}

func (c NodeConfig) validate() error {
	switch {
	case c.RootDir == "":
		return errors.New("fs: node RootDir required")
	case c.DataDisks <= 0:
		return fmt.Errorf("fs: node needs at least one data disk, got %d", c.DataDisks)
	case c.IdleThresholdSec < 0:
		return errors.New("fs: negative idle threshold")
	case c.StripeChunkBytes < 0:
		return errors.New("fs: negative stripe chunk size")
	case c.BufferCapacityBytes < 0:
		return errors.New("fs: negative buffer capacity")
	}
	if err := c.DataModel.Validate(); err != nil {
		return err
	}
	return c.BufferModel.Validate()
}

// nodeDisk pairs a disk state machine with its backing directory. The
// mutex serializes all access — a real drive has one head.
type nodeDisk struct {
	mu       sync.Mutex
	d        *disk.Disk
	dir      string
	label    string
	isBuffer bool
	index    int // data-disk index; -1 for the buffer disk
	timer    *time.Timer

	// Current request attribution, owned by the mu holder: the trace,
	// file, and span this disk is working for right now. The transition
	// observer charges active/spin-up dwells to them; zero values mean
	// background work (flushes, timer-driven spin-downs).
	curTrace uint64
	curFile  string
	curSpan  *telemetry.Span
}

// Node is a running storage-node daemon.
type Node struct {
	cfg    NodeConfig
	clock  *Clock
	lis    listener
	meta   *metadata.NodeMap
	buffer *nodeDisk
	data   []*nodeDisk
	logger *log.Logger

	mu         sync.Mutex
	nextDisk   int             // round-robin cursor for file creation
	dirty      map[int]int64   // fileID -> size awaiting flush to its data disk
	dirtyBytes int64           // sum of dirty's values, kept by set/clearDirtyLocked
	hints      map[int]float64 // fileID -> mean inter-arrival (model sec)
	lastAccess map[int]float64 // fileID -> model time of the last request
	hits       atomic.Int64
	misses     atomic.Int64
	bufWrites  int64

	// partSeq numbers extentWriters, so concurrent writers of one file
	// stage under different names (see extent.go).
	partSeq atomic.Uint64
	// plantSkipCharge is the equivalence oracle's planted bug: requests of
	// the wire plane it names skip the disk charge. Tests only.
	plantSkipCharge atomic.Value

	// persistMu serializes log appends and checkpoints (see persist.go).
	persistMu sync.Mutex
	wal       *wal.Log

	// Pre-resolved telemetry handles (all no-ops with a nil registry);
	// hitsC/missesC/bufWritesC mirror the counters above into the
	// registry so the admin endpoint sees them live.
	met           opMetrics
	hitsC         *telemetry.Counter
	missesC       *telemetry.Counter
	bufWritesC    *telemetry.Counter
	flushesC      *telemetry.Counter
	logBytesC     *telemetry.Counter
	checkpointsC  *telemetry.Counter
	streamBytesC  *telemetry.Counter
	streamChunksC *telemetry.Counter
}

// StartNode creates the disk directories, binds the listener, and starts
// serving.
func StartNode(cfg NodeConfig) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Logger == nil {
		cfg.Logger = log.New(os.Stderr, "eevfs-node ", log.LstdFlags)
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	n := &Node{
		cfg:        cfg,
		clock:      NewClock(cfg.TimeScale),
		meta:       metadata.NewNodeMap(),
		logger:     cfg.Logger,
		dirty:      make(map[int]int64),
		hints:      make(map[int]float64),
		lastAccess: make(map[int]float64),
	}

	n.met = newOpMetrics(cfg.Metrics, "node", []proto.Type{
		proto.TNodeCreateReq, proto.TNodeWriteReq, proto.TNodeReadReq,
		proto.TNodeReadAtReq, proto.TNodeDeleteReq, proto.TNodePrefetchReq,
		proto.TNodeHintsReq, proto.TNodeStatsReq,
		proto.TStreamReadReq, proto.TStreamWriteReq,
	})
	n.streamBytesC = cfg.Metrics.Counter("node.stream.bytes")
	n.streamChunksC = cfg.Metrics.Counter("node.stream.chunks")
	n.hitsC = cfg.Metrics.Counter("node.buffer.hits")
	n.missesC = cfg.Metrics.Counter("node.buffer.misses")
	n.bufWritesC = cfg.Metrics.Counter("node.buffer.writes")
	n.flushesC = cfg.Metrics.Counter("node.buffer.flushes")
	n.logBytesC = cfg.Metrics.Counter("persist.log.bytes")
	n.checkpointsC = cfg.Metrics.Counter("persist.checkpoints")
	diskObs := transitionObserver(cfg.Metrics, "node")

	bufDir := filepath.Join(cfg.RootDir, "buffer")
	if err := os.MkdirAll(bufDir, 0o755); err != nil {
		return nil, fmt.Errorf("fs: creating buffer dir: %w", err)
	}
	n.buffer = &nodeDisk{
		d: disk.New("buffer", cfg.BufferModel), dir: bufDir,
		label: "buffer", isBuffer: true, index: -1,
	}
	n.buffer.d.SetObserver(n.diskObserver(n.buffer, diskObs))
	for i := 0; i < cfg.DataDisks; i++ {
		dir := filepath.Join(cfg.RootDir, fmt.Sprintf("data%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("fs: creating data dir %d: %w", i, err)
		}
		nd := &nodeDisk{
			d:     disk.New(fmt.Sprintf("data%d", i), cfg.DataModel),
			dir:   dir,
			label: fmt.Sprintf("data%d", i),
			index: i,
		}
		nd.d.SetObserver(n.diskObserver(nd, diskObs))
		n.data = append(n.data, nd)
	}

	for _, nd := range append([]*nodeDisk{n.buffer}, n.data...) {
		if err := sweepParts(nd.dir); err != nil {
			return nil, err
		}
	}
	if err := n.openManifest(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		n.wal.Close()
		return nil, err
	}
	n.lis.listen(ln, n.logger.Printf, func(conn net.Conn) {
		serveFrames(conn, n.cfg.WriteTimeout, n.dispatch, n.dispatchStream)
	})
	return n, nil
}

// Addr returns the bound listen address.
func (n *Node) Addr() string { return n.lis.Addr() }

// Files returns a snapshot of the node's local metadata, in id order.
// The simulation-testing harness uses it to cross-check the server's
// placement records against what each node actually holds.
func (n *Node) Files() []metadata.NodeEntry {
	ids := n.meta.IDs()
	out := make([]metadata.NodeEntry, 0, len(ids))
	for _, id := range ids {
		if e, ok := n.meta.Lookup(id); ok {
			out = append(out, e)
		}
	}
	return out
}

// Close stops the daemon, flushes the write buffer, and waits for
// connections to drain.
func (n *Node) Close() error {
	first, err := n.lis.shut()
	if !first {
		return nil
	}
	n.lis.wait()
	n.flushAll()
	n.persistMu.Lock()
	n.checkpointLocked()
	n.persistMu.Unlock()
	if cerr := n.wal.Close(); err == nil {
		err = cerr
	}
	return err
}

func (n *Node) dispatch(t proto.Type, payload []byte, sc telemetry.SpanContext) (proto.Type, []byte, error) {
	start := time.Now()
	sp := n.cfg.Tracer.StartRemote(sc, "node", "node."+opName(t))
	rt, rp, err := n.dispatchInner(t, payload, sp)
	n.met.observe(t, time.Since(start), err)
	sp.End(err)
	return rt, rp, err
}

func (n *Node) dispatchInner(t proto.Type, payload []byte, sp *telemetry.Span) (proto.Type, []byte, error) {
	switch t {
	case proto.TNodeCreateReq:
		req, err := proto.DecodeNodeCreateReq(payload)
		if err != nil {
			return 0, nil, err
		}
		if err := n.handleCreate(req); err != nil {
			return 0, nil, err
		}
		return proto.TNodeCreateResp, nil, nil

	case proto.TNodeWriteReq:
		req, err := proto.DecodeNodeWriteReq(payload)
		if err != nil {
			return 0, nil, err
		}
		buffered, err := n.handleWrite(req, sp)
		if err != nil {
			return 0, nil, err
		}
		return proto.TNodeWriteResp, proto.NodeWriteResp{Buffered: buffered}.Encode(), nil

	case proto.TNodeReadReq:
		req, err := proto.DecodeNodeReadReq(payload)
		if err != nil {
			return 0, nil, err
		}
		data, fromBuffer, err := n.handleRead(req.FileID, 0, wholeFile, sp)
		if err != nil {
			return 0, nil, err
		}
		defer proto.PutChunk(data)
		return proto.TNodeReadResp,
			proto.NodeReadResp{FromBuffer: fromBuffer, Data: data}.Encode(), nil

	case proto.TNodeDeleteReq:
		req, err := proto.DecodeNodeDeleteReq(payload)
		if err != nil {
			return 0, nil, err
		}
		if err := n.handleDelete(req.FileID); err != nil {
			return 0, nil, err
		}
		return proto.TNodeDeleteResp, nil, nil

	case proto.TNodePrefetchReq:
		req, err := proto.DecodeNodePrefetchReq(payload)
		if err != nil {
			return 0, nil, err
		}
		count := n.handlePrefetch(req.FileIDs, sp)
		return proto.TNodePrefetchResp, proto.PrefetchResp{Prefetched: count}.Encode(), nil

	case proto.TNodeReadAtReq:
		req, err := proto.DecodeNodeReadAtReq(payload)
		if err != nil {
			return 0, nil, err
		}
		if req.Length < 0 {
			return 0, nil, fmt.Errorf("fs: ranged read of file %d with length %d", req.FileID, req.Length)
		}
		data, fromBuffer, err := n.handleRead(req.FileID, req.Offset, req.Length, sp)
		if err != nil {
			return 0, nil, err
		}
		defer proto.PutChunk(data)
		return proto.TNodeReadAtResp,
			proto.NodeReadResp{FromBuffer: fromBuffer, Data: data}.Encode(), nil

	case proto.TNodeHintsReq:
		req, err := proto.DecodeNodeHintsReq(payload)
		if err != nil {
			return 0, nil, err
		}
		n.handleHints(req)
		return proto.TNodeHintsResp, nil, nil

	case proto.TNodeStatsReq:
		return proto.TNodeStatsResp, n.statsResp().Encode(), nil

	default:
		return 0, nil, fmt.Errorf("fs: node got unexpected message type %d", t)
	}
}

// reqAttrib ties one disk operation back to the request that caused it:
// the trace and file the energy join charges, and the parent span for
// the disk-level child span, annotated with the wire plane the request
// arrived on. The zero value means background work (flushes, shutdown
// drains).
type reqAttrib struct {
	trace uint64
	file  string
	span  *telemetry.Span
	plane string
}

const (
	planeRPC    = "rpc"
	planeStream = "stream"
)

// spanAttrib builds the attribution for a request span operating on one
// file. The file key is set even when tracing is off, so the per-file
// energy buckets work for untraced traffic too.
func spanAttrib(sp *telemetry.Span, fileID int64, plane string) reqAttrib {
	return reqAttrib{trace: sp.TraceID(), file: fmt.Sprintf("file:%d", fileID), span: sp, plane: plane}
}

// diskObserver composes the metrics transition observer with the energy
// join for one disk: each closed dwell's joules ((now - dwell start) x
// the left state's power draw) are charged to the request the disk is
// currently working for — attribution fields are owned by the nd.mu
// holder, and every transition happens under nd.mu — or to the
// background bucket when there is none. The running dwell start lives in
// the closure; Advance() between transitions does not move it, which is
// fine: the state is unchanged, so the per-dwell product is identical.
func (n *Node) diskObserver(nd *nodeDisk, base disk.Observer) disk.Observer {
	if n.cfg.Energy == nil {
		return base
	}
	model := nd.d.Model()
	arm := "data."
	if nd.isBuffer {
		arm = "buffer."
	}
	last := nd.d.StateSince()
	return func(now simtime.Time, from, to disk.PowerState) {
		if base != nil {
			base(now, from, to)
		}
		j := float64(now-last) * model.StatePower(from)
		last = now
		if from == disk.Active || from == disk.SpinningUp {
			n.cfg.Energy.Attribute(nd.curTrace, nd.curFile, arm+from.String(), j)
			nd.curSpan.AddEnergy(j)
			return
		}
		n.cfg.Energy.Attribute(0, "", arm+from.String(), j)
	}
}

func (n *Node) handleCreate(req proto.NodeCreateReq) error {
	if req.Size <= 0 {
		return fmt.Errorf("fs: create file %d with size %d", req.FileID, req.Size)
	}
	n.mu.Lock()
	diskIdx := n.nextDisk % len(n.data)
	n.nextDisk++
	n.mu.Unlock()
	// Creation order is popularity order (Section IV-A): the round-robin
	// cursor load-balances popular files across the node's data disks.
	if err := n.meta.Put(metadata.NodeEntry{
		ID:   int(req.FileID),
		Size: req.Size,
		Disk: diskIdx,
	}); err != nil {
		return err
	}
	n.logState(int(req.FileID))
	return nil
}

// handleWrite replaces a file's content from one RPC payload. buffered
// reports whether the buffer disk's log area absorbed it.
func (n *Node) handleWrite(req proto.NodeWriteReq, sp *telemetry.Span) (bool, error) {
	w, err := n.sink(req.FileID, int64(len(req.Data)), spanAttrib(sp, req.FileID, planeRPC))
	if err != nil {
		return false, err
	}
	if err := w.write(req.Data); err != nil {
		w.abandon()
		return false, err
	}
	if err := w.commit(); err != nil {
		return false, err
	}
	n.commitWrite(w.entry, w.size, w.buffered)
	return w.buffered, nil
}

// commitWrite applies the metadata transitions of a write whose bytes
// have landed — shared by the RPC and streaming write paths — and logs
// the file's new state if anything persistent changed.
func (n *Node) commitWrite(entry metadata.NodeEntry, size int64, buffered bool) {
	n.mu.Lock()
	changed := buffered
	if buffered {
		n.setDirtyLocked(entry.ID, size)
		n.bufWrites++
	} else {
		changed = n.clearDirtyLocked(entry.ID) || entry.Prefetched
	}
	n.mu.Unlock()
	if buffered {
		n.bufWritesC.Inc()
	} else if changed {
		// A direct write supersedes any buffer-disk copy: drop the stale
		// prefetched replica or unflushed write so reads cannot see old
		// content.
		entry.Prefetched = false
		n.meta.SetPrefetched(entry.ID, false)
		removeExtents(n.bufferExtent(entry.ID, 0))
	}
	if size != entry.Size {
		entry.Size = size
		_ = n.meta.Put(entry) // valid when looked up; only the size moved
		changed = true
	}
	if changed {
		n.logState(entry.ID)
	}
}

// handleRead serves a byte range (or wholeFile) as one RPC payload. The
// bytes are dead once the response is encoded, so they come from the
// chunk pool: the caller hands them to proto.PutChunk when done.
func (n *Node) handleRead(fileID, off, length int64, sp *telemetry.Span) ([]byte, bool, error) {
	r, err := n.source(fileID, off, length, spanAttrib(sp, fileID, planeRPC))
	if err != nil {
		return nil, false, err
	}
	defer r.first.Close()
	data := proto.GetChunk(int(r.length))[:0]
	buf := proto.GetChunk(int(min(r.length, proto.DefaultStreamChunk)))
	defer proto.PutChunk(buf)
	err = r.emit(buf, func(b []byte) error {
		data = append(data, b...)
		return nil
	})
	return data, r.fromBuffer, err
}

func (n *Node) handleDelete(fileID int64) error {
	entry, ok := n.meta.Lookup(int(fileID))
	if !ok {
		return fmt.Errorf("fs: delete of unknown file %d", fileID)
	}
	n.mu.Lock()
	n.clearDirtyLocked(int(fileID))
	n.mu.Unlock()
	removeExtents(n.bufferExtent(entry.ID, 0))
	removeExtents(n.dataExtents(entry))
	n.meta.Delete(int(fileID))
	n.logState(int(fileID))
	return nil
}

// setDirtyLocked and clearDirtyLocked are the only writers of the dirty
// map, so dirtyBytes always equals the sum of its values. Callers hold
// n.mu. clearDirtyLocked reports whether the id was dirty.
func (n *Node) setDirtyLocked(id int, size int64) {
	n.dirtyBytes += size - n.dirty[id]
	n.dirty[id] = size
}

func (n *Node) clearDirtyLocked(id int) bool {
	size, ok := n.dirty[id]
	if ok {
		n.dirtyBytes -= size
		delete(n.dirty, id)
	}
	return ok
}

// bufferHasRoom reports whether size more bytes fit in the buffer disk's
// configured capacity (prefetched copies plus unflushed writes count
// against it). Both terms are running counters: every write and every
// prefetched file asks.
func (n *Node) bufferHasRoom(size int64) bool {
	if n.cfg.BufferCapacityBytes <= 0 {
		return true
	}
	n.mu.Lock()
	used := n.dirtyBytes
	n.mu.Unlock()
	return used+n.meta.PrefetchedBytes()+size <= n.cfg.BufferCapacityBytes
}

// handlePrefetch copies each locally-known file from its data disk into
// the buffer disk (step 3 of the process flow). Unknown ids are skipped —
// the server's view may be slightly ahead of a node restart; files that
// would overflow the buffer's capacity are skipped too (the greedy
// popularity-order selection of Section IV-B).
func (n *Node) handlePrefetch(ids []int64, sp *telemetry.Span) int64 {
	var count int64
	var staged []int
	for _, id := range ids {
		entry, ok := n.meta.Lookup(int(id))
		if !ok {
			continue
		}
		if entry.Prefetched {
			count++
			continue
		}
		if !n.bufferHasRoom(entry.Size) {
			continue
		}
		// An unflushed buffered write means the data disks do not hold
		// the newest (or any) content yet; settle it first.
		n.mu.Lock()
		_, isDirty := n.dirty[int(id)]
		n.mu.Unlock()
		if isDirty {
			n.flushOne(int(id))
			if entry, ok = n.meta.Lookup(int(id)); !ok {
				continue
			}
		}
		err := n.copyExtents(n.dataExtents(entry), n.bufferExtent(entry.ID, entry.Size),
			entry.Size, spanAttrib(sp, id, planeRPC))
		if err != nil {
			n.logger.Printf("prefetch of file %d failed: %v", id, err)
			continue
		}
		n.meta.SetPrefetched(int(id), true)
		staged = append(staged, int(id))
		count++
	}
	if len(staged) > 0 {
		n.logState(staged...)
	}
	return count
}

// handleHints installs the server-forwarded access patterns
// (Section IV-C). Intervals arrive in real (wall-clock) seconds — the
// server observes real time — and are converted to this node's model
// time. A non-positive interval clears a file's hint.
func (n *Node) handleHints(req proto.NodeHintsReq) {
	scale := n.clock.Scale()
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, h := range req.Hints {
		if h.MeanIntervalSec > 0 {
			n.hints[int(h.FileID)] = h.MeanIntervalSec * scale
		} else {
			delete(n.hints, int(h.FileID))
		}
	}
}

// noteAccess timestamps a file's most recent request (model time), the
// anchor the idle-window predictor extrapolates from.
func (n *Node) noteAccess(fileID int) {
	now := float64(n.clock.Now())
	n.mu.Lock()
	n.lastAccess[fileID] = now
	n.mu.Unlock()
}

// predictedGap estimates how long the given data disk will stay idle:
// the time until the earliest hinted next access of any file that still
// needs this disk (prefetched and dirty files are served by the buffer
// disk, so they do not pin data disks awake). It returns ok=false when no
// hints apply — the caller falls back to the reactive threshold.
func (n *Node) predictedGap(diskIdx int) (float64, bool) {
	now := float64(n.clock.Now())
	n.mu.Lock()
	defer n.mu.Unlock()
	next, have := 0.0, false
	for _, id := range n.meta.FilesOnDisk(diskIdx) {
		interval, hinted := n.hints[id]
		if !hinted {
			continue
		}
		if e, ok := n.meta.Lookup(id); ok && e.Prefetched {
			continue
		}
		if _, dirtyHere := n.dirty[id]; dirtyHere {
			continue
		}
		last, seen := n.lastAccess[id]
		if !seen {
			last = now
		}
		t := last + interval
		if t < now {
			t = now
		}
		if !have || t < next {
			next, have = t, true
		}
	}
	if !have {
		return 0, false
	}
	return next - now, true
}

// flushAll copies every dirty buffered write to its data disk (runs on
// shutdown).
func (n *Node) flushAll() {
	n.mu.Lock()
	ids := make([]int, 0, len(n.dirty))
	for id := range n.dirty {
		ids = append(ids, id)
	}
	n.mu.Unlock()
	for _, id := range ids {
		n.flushOne(id)
	}
}

func (n *Node) flushOne(id int) {
	entry, ok := n.meta.Lookup(id)
	if !ok {
		return
	}
	buf := n.bufferExtent(id, entry.Size)
	if err := n.copyExtents(buf, n.dataExtents(entry), entry.Size, reqAttrib{}); err != nil {
		n.logger.Printf("flush of file %d failed: %v", id, err)
		return
	}
	n.mu.Lock()
	n.clearDirtyLocked(id)
	n.mu.Unlock()
	n.flushesC.Inc()
	// Drop the buffer copy unless it doubles as a prefetched replica.
	if !entry.Prefetched {
		removeExtents(buf)
	}
	n.logState(id)
}

// diskNow returns the current model time for one disk, floored at the
// disk's accounting point: with latency injection off the previous
// operation pushes the disk's clock ahead of real time (EndService is
// charged at start + modeled duration), and handing the state machine an
// earlier instant panics.
func (n *Node) diskNow(nd *nodeDisk) simtime.Time {
	now := n.clock.Now()
	if ss := nd.d.StateSince(); now < ss {
		return ss
	}
	return now
}

// wakeLocked brings a standby disk to Idle, charging spin-up latency.
// The spin-up gets a span of its own under sp, so a trace distinguishes
// a read that woke a sleeping spindle from one that found it spinning.
func (n *Node) wakeLocked(nd *nodeDisk, sp *telemetry.Span) {
	if nd.d.State() != disk.Standby {
		return
	}
	wsp := sp.Child("disk.spinup")
	wsp.Annotate("disk", nd.label)
	now := n.diskNow(nd)
	nd.d.BeginSpinUp(now)
	nd.d.CompleteSpinUp(n.elapse(now, nd.d.Model().SpinUpSec))
	wsp.Finish()
}

// elapse lets dur model seconds pass from start — slept for real when
// latency is injected — and returns the instant they end: never earlier
// than start+dur, the real clock if that has run further.
func (n *Node) elapse(start simtime.Time, dur float64) simtime.Time {
	if n.cfg.InjectLatency {
		n.clock.Sleep(dur)
	}
	return max(n.clock.Now(), start+simtime.Time(dur))
}

// serviceLocked charges one service on the disk and rearms DPM.
func (n *Node) serviceLocked(nd *nodeDisk, size int64, sequential bool) {
	m := nd.d.Model()
	dur := m.ServiceTime(size)
	if sequential {
		dur = m.SequentialTime(size)
	}
	start := n.diskNow(nd)
	nd.d.BeginService(start)
	nd.d.EndService(n.elapse(start, dur), size)
	n.armTimerLocked(nd)
}

// armTimerLocked schedules the spin-down decision for a data disk. With
// server-forwarded hints predicting an idle window at least as long as
// the threshold, the disk sleeps immediately (Section IV-C); otherwise
// the reactive threshold timer applies.
func (n *Node) armTimerLocked(nd *nodeDisk) {
	if nd.isBuffer || n.cfg.IdleThresholdSec <= 0 {
		return // the buffer disk must stay available (Section III-C)
	}
	if nd.timer != nil {
		nd.timer.Stop()
	}
	delay := n.cfg.IdleThresholdSec
	if gap, ok := n.predictedGap(nd.index); ok && gap >= n.cfg.IdleThresholdSec {
		delay = 0.001 // effectively immediate, off the request path
	}
	nd.timer = time.AfterFunc(n.clock.RealDuration(delay), func() {
		nd.mu.Lock()
		defer nd.mu.Unlock()
		if nd.d.State() != disk.Idle {
			return
		}
		now := n.diskNow(nd)
		nd.d.BeginSpinDown(now)
		nd.d.CompleteSpinDown(n.elapse(now, nd.d.Model().SpinDownSec))
	})
}

// statsResp snapshots every disk's accounting.
func (n *Node) statsResp() proto.StatsResp {
	var resp proto.StatsResp
	snapshot := func(nd *nodeDisk) {
		nd.mu.Lock()
		defer nd.mu.Unlock()
		nd.d.Advance(n.diskNow(nd))
		st := nd.d.Stats()
		resp.Disks = append(resp.Disks, proto.DiskStats{
			Name:       st.Name,
			EnergyJ:    st.EnergyJ,
			SpinUps:    int64(st.SpinUps),
			SpinDowns:  int64(st.SpinDowns),
			Requests:   st.Requests,
			BytesMoved: st.BytesMoved,
			State:      nd.d.State().String(),
		})
	}
	snapshot(n.buffer)
	for _, nd := range n.data {
		snapshot(nd)
	}
	if reg := n.cfg.Metrics; reg != nil {
		// The registry already mirrors the buffer counters (and carries
		// the per-op and disk-transition telemetry on top), so export it
		// wholesale.
		for _, name := range reg.CounterNames() {
			resp.Counters = append(resp.Counters, proto.CounterStat{
				Name:  name,
				Value: reg.Counter(name).Value(),
			})
		}
	} else {
		hits, misses, bufWrites := n.Counters()
		resp.Counters = []proto.CounterStat{
			{Name: "node.buffer.hits", Value: hits},
			{Name: "node.buffer.misses", Value: misses},
			{Name: "node.buffer.writes", Value: bufWrites},
		}
	}
	return resp
}

// Counters returns the node's hit/miss/buffered-write counters (primarily
// for tests and the stats CLI).
func (n *Node) Counters() (hits, misses, bufferedWrites int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.hits.Load(), n.misses.Load(), n.bufWrites
}

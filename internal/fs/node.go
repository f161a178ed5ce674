package fs

import (
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"strconv"
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
	// The managed disk's one idle timer and the deadline it was last armed
	// for (zero once stopped), owned by the mu holder.
	timer   *time.Timer
	sleepAt time.Time
	// alarm wakes the runtime's poller at the end of each injected wait
	// (elapse); owned by the mu holder. The zero alarm (no latency
	// injected, or a closed node) arms nothing.
	alarm alarm

	// Current request attribution, owned by the mu holder: the trace,
	// file, and span this disk is working for right now. The transition
	// observer charges active/spin-up dwells to them; zero values mean
	// background work (flushes, timer-driven spin-downs).
	curTrace uint64
	curFile  string
	curSpan  *telemetry.Span

	// spare names a data disk's one retired extent, an inode a commit
	// replaced, kept for the next large writer to overwrite (extent.go);
	// nil: none.
	spare atomic.Pointer[string]
}

// Node is a running storage-node daemon. Everything it knows about its
// files is in the file table (filetable.go); locks nest persistMu, then
// the table's, then a disk's, never the other way round.
type Node struct {
	cfg    NodeConfig
	clock  *Clock
	lis    listener
	files  *fileTable
	buffer *nodeDisk
	data   []*nodeDisk
	logger *log.Logger

	// partSeq numbers extentWriters, so concurrent writers of one file
	// stage under different names (see extent.go).
	partSeq atomic.Uint64
	// plantSkipCharge is the equivalence oracle's planted bug: requests of
	// the wire plane it names skip the disk charge. Tests only.
	plantSkipCharge atomic.Value
	// plantEarlyOffset is the crash-prefix oracle's planted bug: land
	// records a copy in the log one byte before where it was written. Tests
	// only.
	plantEarlyOffset bool
	// plantAppendErr fails every append to the log. Tests only; set under persistMu.
	plantAppendErr error

	// The log's cleaner (segment.go): one pass at a time, and what Close
	// waits on.
	cleanMu sync.Mutex
	cleanWG sync.WaitGroup

	// persistMu serializes transitions and checkpoints (see persist.go).
	persistMu sync.Mutex
	wal       *wal.Log

	// Pre-resolved telemetry handles. The buffer counters are what
	// Counters and TNodeStatsResp report, so they live in a registry the
	// node always has: cfg.Metrics — shared counts, when nodes share it —
	// or a private one. The rest are no-ops with a nil cfg.Metrics.
	counters      *telemetry.Registry
	hitsC         *telemetry.Counter
	missesC       *telemetry.Counter
	bufWritesC    *telemetry.Counter
	flushesC      *telemetry.Counter
	logBytesC     *telemetry.Counter
	checkpointsC  *telemetry.Counter
	streamBytesC  *telemetry.Counter
	streamChunksC *telemetry.Counter
	waitLateH     *telemetry.Histogram
}

// waitLateBuckets bound node.disk.wait_late_us: how many real µs an
// injected wait ended after its deadline.
var waitLateBuckets = []float64{5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

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
		cfg:      cfg,
		clock:    NewClock(cfg.TimeScale),
		files:    newFileTable(cfg.DataDisks, cfg.BufferCapacityBytes),
		logger:   cfg.Logger,
		counters: cfg.Metrics,
	}
	if n.counters == nil {
		n.counters = telemetry.NewRegistry()
	}
	n.streamBytesC = cfg.Metrics.Counter("node.stream.bytes")
	n.streamChunksC = cfg.Metrics.Counter("node.stream.chunks")
	n.hitsC = n.counters.Counter("node.buffer.hits")
	n.missesC = n.counters.Counter("node.buffer.misses")
	n.bufWritesC = n.counters.Counter("node.buffer.writes")
	n.flushesC = cfg.Metrics.Counter("node.buffer.flushes")
	n.logBytesC = cfg.Metrics.Counter("persist.log.bytes")
	n.checkpointsC = cfg.Metrics.Counter("persist.checkpoints")
	n.waitLateH = cfg.Metrics.Histogram("node.disk.wait_late_us", waitLateBuckets)
	n.files.ext.opens = cfg.Metrics.Counter("node.extent.opens")
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

	if err := n.files.openSegments(bufDir); err != nil {
		return nil, err
	}
	if err := n.openManifest(); err != nil {
		n.files.closeSegments()
		return nil, err
	}
	err := n.files.restored()
	for _, nd := range append([]*nodeDisk{n.buffer}, n.data...) {
		if err == nil {
			err = sweep(nd.dir)
		}
	}
	var ln net.Listener
	if err == nil {
		ln, err = net.Listen("tcp", cfg.Addr)
	}
	if err != nil {
		n.cleanWG.Wait()
		n.wal.Close()
		n.files.closeSegments()
		return nil, err
	}
	if cfg.InjectLatency {
		for _, nd := range append([]*nodeDisk{n.buffer}, n.data...) {
			nd.alarm = newAlarm()
		}
	}
	// The idle clock starts at boot, as the simulator's starts at replay
	// start: a data disk no request asks for sleeps once the threshold runs
	// out instead of idling until its first service. No hints are
	// installed yet, so the reactive threshold applies.
	for _, nd := range n.data {
		nd.mu.Lock()
		n.armTimerLocked(nd, 0, false)
		nd.mu.Unlock()
	}
	ops := newOpTable("node", cfg.Metrics, cfg.Tracer, n.ops())
	n.lis.listen(ln, n.logger.Printf, func(conn net.Conn) {
		serveFrames(conn, n.cfg.WriteTimeout, ops)
	})
	return n, nil
}

// Addr returns the bound listen address.
func (n *Node) Addr() string { return n.lis.Addr() }

// Files returns a snapshot of the node's local metadata, in id order.
// The simulation-testing harness uses it to cross-check the server's
// placement records against what each node actually holds.
func (n *Node) Files() []metadata.NodeEntry { return n.files.manifest().Files }

// Close stops the daemon, flushes the write buffer, waits for connections
// and the log's cleaner to drain, and closes every descriptor it kept.
func (n *Node) Close() error {
	first, err := n.lis.shut()
	if !first {
		return nil
	}
	n.lis.wait()
	n.cleanWG.Wait()
	n.flushAll()
	// The flush's services re-armed the idle timers, and nothing may drive
	// a disk of a closed node: the timers stop and the alarms close.
	for _, nd := range append([]*nodeDisk{n.buffer}, n.data...) {
		nd.mu.Lock()
		if nd.timer != nil {
			nd.timer.Stop()
			nd.sleepAt = time.Time{}
		}
		nd.alarm.close()
		nd.alarm = alarm{}
		nd.mu.Unlock()
	}
	n.persistMu.Lock()
	n.checkpointLocked()
	n.persistMu.Unlock()
	if cerr := n.wal.Close(); err == nil {
		err = cerr
	}
	n.files.closeExtents()
	n.files.closeSegments()
	return err
}

// ops is the node's op table: the RPCs the server sends it and the two
// stream opens of its data plane (node_stream.go). n may be nil where only
// the rows' names are wanted: the server names its node round trips'
// spans after them.
func (n *Node) ops() map[proto.Type]op {
	return map[proto.Type]op{
		proto.TNodeCreateReq: {name: "create", rpc: answer(proto.DecodeNodeCreateReq, proto.TNodeCreateResp, n.handleCreate)},
		proto.TNodeWriteReq:  {name: "write", rpc: answer(proto.DecodeNodeWriteReq, proto.TNodeWriteResp, n.handleWrite)},
		proto.TNodeReadReq: {name: "read", rpc: func(payload []byte, sp *telemetry.Span) (reply, error) {
			req, err := proto.DecodeNodeReadReq(payload)
			if err != nil {
				return reply{}, err
			}
			return n.handleRead(proto.TNodeReadResp, req.FileID, 0, wholeFile, sp)
		}},
		proto.TNodeReadAtReq: {name: "readat", rpc: func(payload []byte, sp *telemetry.Span) (reply, error) {
			req, err := proto.DecodeNodeReadAtReq(payload)
			if err != nil {
				return reply{}, err
			}
			if req.Length < 0 {
				return reply{}, fmt.Errorf("fs: ranged read of file %d with length %d", req.FileID, req.Length)
			}
			return n.handleRead(proto.TNodeReadAtResp, req.FileID, req.Offset, req.Length, sp)
		}},
		proto.TNodeDeleteReq:   {name: "delete", rpc: answer(proto.DecodeNodeDeleteReq, proto.TNodeDeleteResp, n.handleDelete)},
		proto.TNodePrefetchReq: {name: "prefetch", rpc: answer(proto.DecodeNodePrefetchReq, proto.TNodePrefetchResp, n.handlePrefetch)},
		proto.TNodeHintsReq:    {name: "hints", rpc: answer(proto.DecodeNodeHintsReq, proto.TNodeHintsResp, n.handleHints)},
		proto.TNodeStatsReq: {name: "stats", rpc: func([]byte, *telemetry.Span) (reply, error) {
			return reply{t: proto.TNodeStatsResp, body: n.statsResp().Encode()}, nil
		}},
		proto.TStreamReadReq:  {name: "stream.read", stream: n.handleStreamRead},
		proto.TStreamWriteReq: {name: "stream.write", stream: n.handleStreamWrite},
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
// energy buckets work for untraced traffic too; every read builds one, so
// it is fmt's "file:%d" assembled with strconv, one allocation.
func spanAttrib(sp *telemetry.Span, fileID int64, plane string) reqAttrib {
	return reqAttrib{trace: sp.TraceID(), file: fileKey(fileID), span: sp, plane: plane}
}

// fileKey is the energy ledger's key for a file: "file:<id>".
func fileKey(id int64) string {
	return string(strconv.AppendInt(append(make([]byte, 0, 32), "file:"...), id, 10))
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

func (n *Node) handleCreate(req proto.NodeCreateReq, _ *telemetry.Span) (noBody, error) {
	if req.Size <= 0 {
		return noBody{}, fmt.Errorf("fs: create file %d with size %d", req.FileID, req.Size)
	}
	// Creation order is popularity order (Section IV-A): the round-robin
	// cursor load-balances popular files across the node's data disks.
	return noBody{}, n.transition(int(req.FileID), func(_ *fileRec, r *nodeRecord) error {
		r.Entry = metadata.NodeEntry{ID: r.Entry.ID, Size: req.Size, Disk: r.NextDisk % len(n.data)}
		r.Present = true
		r.NextDisk++
		return nil
	})
}

// handleWrite replaces a file's content from one RPC payload; the
// response reports whether the buffer disk's log area absorbed it.
func (n *Node) handleWrite(req proto.NodeWriteReq, sp *telemetry.Span) (proto.NodeWriteResp, error) {
	w, err := n.sink(req.FileID, int64(len(req.Data)), spanAttrib(sp, req.FileID, planeRPC))
	if err != nil {
		return proto.NodeWriteResp{}, err
	}
	if err := w.write(req.Data); err != nil {
		w.abandon()
		return proto.NodeWriteResp{}, err
	}
	return proto.NodeWriteResp{Buffered: w.buffered}, n.commitWrite(w)
}

// commitWrite lands a client write whose bytes are staged — shared by the
// RPC and streaming write paths. A buffered write leaves the file
// unflushed, its record naming the new copy in the log; a direct one
// supersedes any buffer-disk copy, so the record names none and reads
// cannot see old content. Either way the file has moved, even where its
// record reads as before.
func (n *Node) commitWrite(w *extentWriter) error {
	err := n.land(w, func(r *nodeRecord) {
		r.Entry.Size = w.size
		if w.buffered {
			r.Dirty, r.DirtySize = true, w.size
			return
		}
		r.Dirty, r.DirtySize, r.Entry.Prefetched, r.Loc = false, 0, false, segLoc{}
	})
	if err == nil && w.buffered {
		n.bufWritesC.Inc()
	}
	return err
}

// handleRead serves a byte range (or wholeFile) as one response of type
// rt, built where it is sent from: the bytes are read off the disk into a
// pooled chunk, behind room for the response's head; the chunk is the body.
func (n *Node) handleRead(rt proto.Type, fileID, off, length int64, sp *telemetry.Span) (reply, error) {
	r, err := n.source(fileID, off, length, spanAttrib(sp, fileID, planeRPC))
	if err != nil {
		return reply{}, err
	}
	defer r.close(n.files)
	body := proto.GetChunk(proto.NodeReadRespHead + int(r.length))
	proto.PutNodeReadRespHead(body, r.fromBuffer, int(r.length))
	if err := r.emit(n.files, body[proto.NodeReadRespHead:], nil); err != nil {
		proto.PutChunk(body)
		return reply{}, err
	}
	return reply{t: rt, body: body, pooled: true}, nil
}

func (n *Node) handleDelete(req proto.NodeDeleteReq, _ *telemetry.Span) (noBody, error) {
	var gone metadata.NodeEntry
	err := n.transition(int(req.FileID), func(rec *fileRec, r *nodeRecord) error {
		if rec == nil {
			return fmt.Errorf("fs: delete of unknown file %d", req.FileID)
		}
		gone = r.Entry
		*r = nodeRecord{Entry: metadata.NodeEntry{ID: gone.ID}, NextDisk: r.NextDisk}
		return nil
	})
	if err == nil {
		removeExtents(n.dataExtents(gone))
	}
	return noBody{}, err
}

// handlePrefetch copies each locally-known file from its data disk into
// the buffer disk (step 3 of the process flow). Unknown ids are skipped —
// the server's view may be slightly ahead of a node restart; files the
// table grants no room are skipped too (the greedy popularity-order
// selection of Section IV-B).
func (n *Node) handlePrefetch(req proto.NodePrefetchReq, sp *telemetry.Span) (proto.PrefetchResp, error) {
	var resp proto.PrefetchResp
	for _, id := range req.FileIDs {
		rec, file, ok := n.files.get(int(id), 0)
		if !ok {
			continue
		}
		if file.Prefetched {
			resp.Prefetched++
			continue
		}
		room := file.Size
		if !n.files.reserve(rec, room) {
			continue
		}
		// An unflushed buffered write means the data disks do not hold
		// the newest (or any) content yet; settle it first.
		if file.unflushed > 0 {
			n.flushOne(file.ID)
			if again, flushed, _ := n.files.get(file.ID, 0); again == rec {
				file = flushed
			}
		}
		w, err := n.bufferWriter(rec, file.Size, room)
		if err == nil {
			err = n.copyInto(w, file, n.dataExtents(file.NodeEntry), spanAttrib(sp, id, planeRPC))
		}
		if err == nil {
			err = n.land(w, func(r *nodeRecord) { r.Entry.Prefetched = true })
		}
		if err != nil {
			n.logger.Printf("prefetch of file %d failed: %v", id, err)
			continue
		}
		resp.Prefetched++
	}
	return resp, nil
}

// handleHints installs the server-forwarded access patterns
// (Section IV-C). Intervals arrive in real (wall-clock) seconds — the
// server observes real time — and are converted to this node's model
// time.
func (n *Node) handleHints(req proto.NodeHintsReq, _ *telemetry.Span) (noBody, error) {
	n.files.setHints(req.Hints, n.clock.Scale())
	return noBody{}, nil
}

// flushAll copies every unflushed buffered write to its data disk (runs
// on shutdown).
func (n *Node) flushAll() {
	for _, d := range n.files.manifest().Dirty {
		n.flushOne(d.ID)
	}
}

func (n *Node) flushOne(id int) {
	rec, file, src, ok := n.files.getPinned(id, 0)
	defer n.files.unpin(src)
	if !ok || file.unflushed == 0 {
		return
	}
	w := n.newWriter(rec, n.dataExtents(file.NodeEntry))
	err := n.copyInto(w, file, n.bufferExtent(src, file), reqAttrib{})
	if err == nil {
		err = n.land(w, func(r *nodeRecord) {
			r.Dirty, r.DirtySize = false, 0
			// Drop the buffer copy unless it doubles as a prefetched replica.
			if !r.Entry.Prefetched {
				r.Loc = segLoc{}
			}
		})
	}
	if err != nil {
		n.logger.Printf("flush of file %d failed: %v", id, err)
		return
	}
	n.flushesC.Inc()
}

// diskNow returns the current model time for one disk, floored at the
// disk's accounting point: the previous operation may have pushed the
// disk's clock ahead of real time (elapse charges it to start + modeled
// duration, which with latency injection off is not slept at all), and
// handing the state machine an earlier instant panics.
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
	nd.d.CompleteSpinUp(n.elapse(nd, now, nd.d.Model().SpinUpSec))
	wsp.Finish()
}

// elapse lets dur model seconds pass on nd from start and returns the
// instant they end; the caller holds nd.mu. With latency injected they
// pass for real: nd's alarm is armed at the deadline and the goroutine
// sleeps until then, so the wait ends on time even on an idle process
// (DESIGN.md §8). The disk is charged the modelled instant, start+dur: a
// late wake-up is time the disk spent idle. Without injection nothing
// sleeps, and the instant is start+dur or the real clock if that has run
// further.
func (n *Node) elapse(nd *nodeDisk, start simtime.Time, dur float64) simtime.Time {
	end := start + simtime.Time(dur)
	if !n.cfg.InjectLatency {
		return max(n.clock.Now(), end)
	}
	d := n.clock.RealDuration(dur)
	deadline := time.Now().Add(d)
	// The sleep runs to the deadline, not for d: arming took some of d,
	// and the alarm must not go off before the sleep's timer is due.
	nd.alarm.arm(d)
	time.Sleep(time.Until(deadline))
	n.waitLateH.Observe(float64(time.Since(deadline)) / float64(time.Microsecond))
	return end
}

// serviceLocked charges one service on the disk.
func (n *Node) serviceLocked(nd *nodeDisk, size int64, sequential bool) {
	m := nd.d.Model()
	dur := m.ServiceTime(size)
	if sequential {
		dur = m.SequentialTime(size)
	}
	start := n.diskNow(nd)
	nd.d.BeginService(start)
	nd.d.EndService(n.elapse(nd, start, dur), size)
}

// managed reports whether nd is under dynamic power management: the data
// disks, when a threshold is set. The buffer disk must stay available
// (Section III-C).
func (n *Node) managed(nd *nodeDisk) bool { return !nd.isBuffer && n.cfg.IdleThresholdSec > 0 }

// nextWanted asks the file table when a managed disk is next expected to
// be asked for. It takes the table's lock, so callers do not hold nd.mu.
func (n *Node) nextWanted(nd *nodeDisk) (at float64, hinted bool) {
	if !n.managed(nd) {
		return 0, false
	}
	return n.files.nextWanted(nd.index, float64(n.clock.Now()))
}

// armTimerLocked schedules the spin-down decision for a data disk: at
// StartNode, and again after every service. With server-forwarded hints
// predicting an idle window at least as long as the threshold, the disk
// sleeps immediately (Section IV-C); otherwise the reactive threshold
// timer applies.
func (n *Node) armTimerLocked(nd *nodeDisk, wantedAt float64, hinted bool) {
	if !n.managed(nd) {
		return
	}
	delay := n.cfg.IdleThresholdSec
	if hinted && wantedAt-float64(n.clock.Now()) >= delay {
		delay = 0.001 // effectively immediate, off the request path
	}
	d := n.clock.RealDuration(delay)
	nd.sleepAt = time.Now().Add(d)
	if nd.timer != nil {
		nd.timer.Reset(d)
		return
	}
	// A firing that waited for nd.mu while a service re-armed the timer, or
	// the node closed, cannot be stopped any more: it must see the deadline
	// moved or gone.
	nd.timer = time.AfterFunc(d, func() {
		nd.mu.Lock()
		defer nd.mu.Unlock()
		if nd.sleepAt.IsZero() || time.Now().Before(nd.sleepAt) || nd.d.State() != disk.Idle {
			return // re-armed, the node closed, or the disk is busy again
		}
		now := n.diskNow(nd)
		nd.d.BeginSpinDown(now)
		nd.d.CompleteSpinDown(n.elapse(nd, now, nd.d.Model().SpinDownSec))
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
	// With cfg.Metrics set this exports the whole registry: the per-op and
	// disk-transition telemetry on top of the buffer counters.
	for _, name := range n.counters.CounterNames() {
		resp.Counters = append(resp.Counters, proto.CounterStat{
			Name:  name,
			Value: n.counters.Counter(name).Value(),
		})
	}
	return resp
}

// Counters returns the node's hit/miss/buffered-write counters (primarily
// for tests and the stats CLI).
func (n *Node) Counters() (hits, misses, bufferedWrites int64) {
	return n.hitsC.Value(), n.missesC.Value(), n.bufWritesC.Value()
}

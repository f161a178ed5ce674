package cluster

import (
	"container/list"
	"fmt"

	"eevfs/internal/disk"
	"eevfs/internal/metrics"
	"eevfs/internal/netmodel"
	"eevfs/internal/placement"
	"eevfs/internal/prefetch"
	"eevfs/internal/simtime"
	"eevfs/internal/telemetry"
	"eevfs/internal/trace"
)

type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opFlush
	opInsert   // buffer-disk population (MAID cache fill, dynamic prefetch)
	opPrefRead // data-disk read feeding a dynamic prefetch
)

// request is one unit of disk work in flight through the simulator.
type request struct {
	kind   opKind
	fileID int
	size   int64
	sentAt simtime.Time // client send time; zero-valued for flushes
	// A striped operation is one request for the whole (size the total,
	// remaining the chunks still out) and one per chunk pointing at it.
	parent    *request
	remaining int
	// release lists, per buffer-disk index, the occupancy a completed
	// flush frees (opFlush only).
	release []int64

	// Telemetry timestamps: when the request joined a disk queue and when
	// its service began (for the journal's queue-wait accounting).
	enqAt   simtime.Time
	startAt simtime.Time
}

// reqQueue is a disk's FIFO: a slice with a head index, so serving a
// request never reallocates.
type reqQueue struct {
	buf  []*request
	head int
}

func (q *reqQueue) len() int { return len(q.buf) - q.head }

func (q *reqQueue) push(r *request) {
	// Reclaim the served prefix rather than grow once it is the larger half.
	if len(q.buf) == cap(q.buf) && q.head > len(q.buf)/2 {
		q.buf, q.head = q.buf[:copy(q.buf, q.buf[q.head:])], 0
	}
	q.buf = append(q.buf, r)
}

func (q *reqQueue) pop() *request {
	r := q.buf[q.head]
	if q.head++; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return r
}

// simDisk wraps a disk state machine with its queue and power-management
// bookkeeping.
type simDisk struct {
	d        *disk.Disk
	node     *simNode
	name     string // journal subject, e.g. "node0/data1"
	isBuffer bool
	index    int // run-wide data-disk index, as sleep rules key it; -1 for a buffer

	queue reqQueue
	cur   *request // in service while the disk is Active

	// timer is the disk's one re-armable timer, set by the sleep rule: no
	// handle outlives what it names.
	timer simtime.Event

	pendingFlushBytes int64
	// pendingPerBuffer tracks which buffer disks hold the unflushed
	// bytes destined for this data disk.
	pendingPerBuffer []int64
}

// simNode is one storage node: a NIC, m buffer disks, and n data disks
// (the paper's BUD architecture, Section I: "each storage node contains m
// buffer disks and n data disks", usually m < n).
type simNode struct {
	id      int
	cfg     NodeConfig
	link    *netmodel.Link
	buffers []*simDisk
	data    []*simDisk
	bufUsed []int64 // occupancy per buffer disk
	bufCap  int64   // capacity per buffer disk

	// MAID cache state: file id -> element in the LRU list (front = most
	// recently used). Only populated in MAID mode.
	cache    map[int]*list.Element
	cacheLRU *list.List // of int file ids
}

// sim carries one run's state.
type sim struct {
	cfg    Config
	tr     *trace.Trace
	eng    *simtime.Engine
	nodes  []*simNode
	assign placement.Assignment
	offset simtime.Time

	// The buffered copies, indexed by file id: prefetched holds the files
	// a read finds on the buffer disk, fetching those whose background
	// fetch is still in flight.
	prefetched, fetching []bool

	// Dynamic re-prefetching state (ReprefetchEvery > 0).
	replayed       int
	observedCounts []int

	// rule is the arm's sleep rule (nil for AlwaysOn); adapt is the
	// Adaptive arm's re-prefetch state, nil for every other arm.
	rule  sleepRule
	adapt *adaptiveState

	// outstanding counts unfinished work items (unarrived or in-flight
	// trace records, pending flushes, background buffer inserts). When it
	// reaches zero the run is over: pending power-management timers are
	// cancelled so they cannot stretch the measured makespan with phantom
	// idle time.
	outstanding int

	resp      metrics.Sampler
	readResp  metrics.Sampler
	writeResp metrics.Sampler
	writes    int // write records in the trace
	res       Result

	// jour is the optional structured event journal.
	jour *telemetry.Journal

	// The allocation-light hot path. on holds the event callbacks as
	// method values, evaluated once (each evaluation allocates): an event
	// carries the *simDisk or *request it acts on instead of a fresh
	// closure. Retired requests are reused; chunkBuf backs chunksOf.
	on struct {
		writeArrived, diskDone, respond, spinUpDone, spinDownDone func(simtime.Time, any)
		onIdle, timer, flushNow                                   func(simtime.Time, any)
	}
	freeReqs []*request
	chunkBuf []chunk
}

// newOp returns a request for one operation, reusing a retired one if any.
func (s *sim) newOp(kind opKind, fileID int, size int64, sentAt simtime.Time) *request {
	var r *request
	if n := len(s.freeReqs); n > 0 {
		r, s.freeReqs = s.freeReqs[n-1], s.freeReqs[:n-1]
	} else {
		r = &request{}
	}
	r.kind, r.fileID, r.size, r.sentAt = kind, fileID, size, sentAt
	return r
}

// retire recycles a request nothing refers to any more.
func (s *sim) retire(r *request) {
	*r = request{}
	s.freeReqs = append(s.freeReqs, r)
}

// bufferFor maps a file to its buffer disk (files hash across the m
// buffer disks by id, mirroring the data-disk round-robin).
func (n *simNode) bufferFor(fid int) (*simDisk, int) {
	idx := fid % len(n.buffers)
	return n.buffers[idx], idx
}

// bufferFits reports whether the file's buffer disk can absorb size more
// bytes.
func (n *simNode) bufferFits(fid int, size int64) bool {
	_, idx := n.bufferFor(fid)
	return n.bufUsed[idx]+size <= n.bufCap
}

// bufferReserve adds size bytes to the file's buffer disk occupancy.
func (n *simNode) bufferReserve(fid int, size int64) {
	_, idx := n.bufferFor(fid)
	n.bufUsed[idx] += size
}

// bufferRelease frees size bytes from the file's buffer disk occupancy.
func (n *simNode) bufferRelease(fid int, size int64) {
	_, idx := n.bufferFor(fid)
	n.bufUsed[idx] -= size
}

// chunk is one striped fragment: which data disk and how many bytes.
type chunk struct {
	disk  int
	bytes int64
}

// chunksOf splits a file across the node's data disks (whole-file when
// striping is off). Chunk c of file f lands on disk (primary + c) mod N,
// so consecutive chunks parallelize across spindles. The result is the
// run's scratch slice: valid until the next call.
func (s *sim) chunksOf(fid int) []chunk {
	size := s.tr.FileSizes[fid]
	primary := s.assign.Disk[fid]
	stripe := s.cfg.StripeChunkBytes
	out := s.chunkBuf[:0]
	if stripe <= 0 || size <= stripe {
		s.chunkBuf = append(out, chunk{disk: primary, bytes: size})
		return s.chunkBuf
	}
	disks := s.cfg.DataDisksPerNode()
	for off, c := int64(0), 0; off < size; off, c = off+stripe, c+1 {
		n := stripe
		if size-off < n {
			n = size - off
		}
		out = append(out, chunk{disk: (primary + c) % disks, bytes: n})
	}
	s.chunkBuf = out
	return out
}

// Run simulates the trace against the configured cluster and returns the
// measured result. Runs are fully deterministic.
func Run(cfg Config, tr *trace.Trace) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := tr.Validate(); err != nil {
		return Result{}, err
	}
	s := &sim{cfg: cfg, tr: tr, eng: &simtime.Engine{}}
	s.on.writeArrived, s.on.diskDone, s.on.respond = s.writeArrived, s.diskDone, s.respond
	s.on.spinUpDone, s.on.spinDownDone, s.on.onIdle = s.spinUpDone, s.spinDownDone, s.onIdle
	s.on.timer, s.on.flushNow = s.timerFired, s.flushNow
	s.jour = cfg.Journal
	if cfg.ReprefetchEvery > 0 {
		s.observedCounts = make([]int, tr.NumFiles())
	}
	s.prefetched, s.fetching = make([]bool, tr.NumFiles()), make([]bool, tr.NumFiles())
	s.buildNodes()

	counts := tr.Counts()
	ranks := trace.RankByCount(counts)
	place := placement.RoundRobin
	if cfg.Concentrate {
		place = placement.Concentrate
	}
	assign, err := place(ranks, len(cfg.Nodes), cfg.DataDisksPerNode())
	if err != nil {
		return Result{}, err
	}
	s.assign = assign

	if cfg.Policy.Prefetches() {
		ids, err := prefetch.SelectRanked(ranks, counts, tr.FileSizes, cfg.PrefetchCount, s.globalBufferCap())
		if err != nil {
			return Result{}, err
		}
		for _, fid := range ids {
			s.prefetched[fid] = true
		}
		s.runPrefetchPhase(ids)
	}

	s.rule = s.chooseRule()

	// Replay: every trace record's arrival at its storage node, streamed
	// into the event order as the engine's ordered source.
	s.outstanding = len(tr.Records)
	arrivals := make([]simtime.Time, len(tr.Records))
	for i, rec := range tr.Records {
		arrivals[i] = s.offset + simtime.Time(rec.TimeS) + simtime.Time(cfg.RouteLatencySec)
		if rec.Op == trace.Write {
			s.writes++
		}
	}
	s.eng.ScheduleAll(arrivals, s.nodeArrival)
	// Every record answers once, so the response samplers are sized here.
	// A write-free run fills only resp: the read sampler would hold the
	// same samples in the same order (finalize).
	s.resp.Grow(len(tr.Records))
	if s.writes > 0 {
		s.readResp.Grow(len(tr.Records) - s.writes)
		s.writeResp.Grow(s.writes)
	}

	// Initial power-management pass at replay start: disks left idle
	// after the prefetch phase may already face a long predicted gap.
	for _, n := range s.nodes {
		for _, d := range n.data {
			s.eng.Post(s.offset, s.on.onIdle, d)
		}
	}

	s.eng.Run()
	s.finalFlush()
	s.finalize()
	return s.res, nil
}

func (s *sim) buildNodes() {
	s.nodes = make([]*simNode, len(s.cfg.Nodes))
	for i, nc := range s.cfg.Nodes {
		n := &simNode{
			id:   i,
			cfg:  nc,
			link: netmodel.NewLink(fmt.Sprintf("node%d", i), nc.LinkMbps, 0.0001),
		}
		buffers := nc.BufferDisks
		if buffers <= 0 {
			buffers = 1
		}
		for j := 0; j < buffers; j++ {
			name := fmt.Sprintf("node%d/buffer", i)
			if buffers > 1 {
				name = fmt.Sprintf("node%d/buffer%d", i, j)
			}
			sd := &simDisk{d: disk.New(name, nc.BufferModel), node: n, isBuffer: true, index: -1}
			s.instrumentDisk(sd, name)
			n.buffers = append(n.buffers, sd)
		}
		n.bufUsed = make([]int64, buffers)
		for j := 0; j < nc.DataDisks; j++ {
			name := fmt.Sprintf("node%d/data%d", i, j)
			sd := &simDisk{d: disk.New(name, nc.DataModel), node: n, index: i*nc.DataDisks + j}
			s.instrumentDisk(sd, name)
			n.data = append(n.data, sd)
		}
		n.bufCap = s.cfg.BufferCapacityBytes
		if n.bufCap == 0 {
			n.bufCap = int64(nc.BufferModel.CapacityGB * 1e9)
		}
		if s.cfg.Policy == MAID {
			n.cache = make(map[int]*list.Element)
			n.cacheLRU = list.New()
		}
		s.nodes[i] = n
	}
}

// globalBufferCap returns the total buffer capacity across nodes, used to
// bound the global prefetch selection.
func (s *sim) globalBufferCap() int64 {
	var total int64
	for _, n := range s.nodes {
		total += n.bufCap * int64(len(n.buffers))
	}
	return total
}

// runPrefetchPhase copies the selected files from their data disks into
// their node's buffer disk, before trace replay begins (step 3 of the
// process flow). The phase is simulated with per-disk time cursors: reads
// on distinct data disks overlap, buffer-disk log appends serialize.
func (s *sim) runPrefetchPhase(ids []int) {
	nodeEnd := make([]simtime.Time, len(s.nodes))
	dataFree := make([][]simtime.Time, len(s.nodes))
	bufferFree := make([][]simtime.Time, len(s.nodes))
	for i, n := range s.nodes {
		dataFree[i] = make([]simtime.Time, len(n.data))
		bufferFree[i] = make([]simtime.Time, len(n.buffers))
	}

	for _, fid := range ids {
		ni := s.assign.Node[fid]
		n := s.nodes[ni]
		size := s.tr.FileSizes[fid]
		if !n.bufferFits(fid, size) {
			s.prefetched[fid] = false
			continue
		}

		// Read every chunk from its data disk (chunks on distinct disks
		// overlap in time), then append the whole file to the buffer log.
		var readEnd simtime.Time
		for _, ch := range s.chunksOf(fid) {
			dd := n.data[ch.disk]
			start := dataFree[ni][ch.disk]
			end := start + simtime.Time(n.cfg.DataModel.ServiceTime(ch.bytes))
			dd.d.BeginService(start)
			dd.d.EndService(end, ch.bytes)
			dataFree[ni][ch.disk] = end
			if end > readEnd {
				readEnd = end
			}
		}

		buf, bi := n.bufferFor(fid)
		writeStart := bufferFree[ni][bi]
		if readEnd > writeStart {
			writeStart = readEnd
		}
		writeEnd := writeStart + simtime.Time(n.cfg.BufferModel.SequentialTime(size))
		buf.d.BeginService(writeStart)
		buf.d.EndService(writeEnd, size)
		bufferFree[ni][bi] = writeEnd

		n.bufferReserve(fid, size)
		if writeEnd > nodeEnd[ni] {
			nodeEnd[ni] = writeEnd
		}
		s.res.PrefetchedFiles++
	}

	for _, e := range nodeEnd {
		if e > s.offset {
			s.offset = e
		}
	}
	// Integrate idle energy of every disk up to the cluster-wide phase
	// end, so PrefetchEnergyJ is a clean snapshot.
	for _, n := range s.nodes {
		for _, b := range n.buffers {
			b.d.Advance(s.offset)
			s.res.PrefetchEnergyJ += b.d.Stats().EnergyJ
		}
		for _, d := range n.data {
			d.d.Advance(s.offset)
			s.res.PrefetchEnergyJ += d.d.Stats().EnergyJ
		}
	}
	s.res.PrefetchEndSec = float64(s.offset)
}

// chooseRule returns the arm's sleep rule: the one place a run reads its
// policy for sleep behaviour. AlwaysOn gets none.
func (s *sim) chooseRule() sleepRule {
	switch p := s.cfg.Policy; p {
	case Prefetch, ThresholdDPM, MAID:
		return &thresholdRule{tau: s.cfg.IdleThresholdSec}
	case PrefetchHinted, PrefetchPrewake:
		r := &hintedRule{tau: s.cfg.IdleThresholdSec, route: s.cfg.RouteLatencySec, prewake: p == PrefetchPrewake}
		s.buildPredictions(r)
		return r
	case Adaptive:
		s.adapt = s.newAdaptiveState()
		return s.adapt.sleep
	}
	return nil
}

// buildPredictions distributes the per-file access pattern to the data
// disks' plans in r (the server "splits the file access patterns based on
// the data distribution and forwards [them] to each storage node",
// Section III-B). Only residual traffic — files not prefetched, or writes
// that will reach the data disk — is included. Run validated the trace's
// times as nondecreasing, so each disk's list is built in time order.
func (s *sim) buildPredictions(r *hintedRule) {
	// The first pass counts each data disk's predicted accesses, so that
	// one array, carved per disk, holds every list the second pass fills.
	per := s.cfg.DataDisksPerNode()
	counts, total := make([]int, len(s.nodes)*per), 0
	for i := range s.tr.Records {
		if rec := &s.tr.Records[i]; s.reachesDataDisk(rec) {
			ni := s.assign.Node[rec.FileID]
			for _, ch := range s.chunksOf(rec.FileID) {
				counts[ni*per+ch.disk]++
				total++
			}
		}
	}
	r.disks = make([]hintedDisk, len(counts))
	all, off := make([]float64, total), 0
	for i, c := range counts {
		r.disks[i].pred, off = all[off:off:off+c], off+c
	}
	for i := range s.tr.Records {
		if rec := &s.tr.Records[i]; s.reachesDataDisk(rec) {
			ni := s.assign.Node[rec.FileID]
			for _, ch := range s.chunksOf(rec.FileID) {
				d := &r.disks[ni*per+ch.disk]
				d.pred = append(d.pred, float64(s.offset)+rec.TimeS)
			}
		}
	}
}

// reachesDataDisk reports whether the hint plan expects rec on its data
// disks: a read of a file not prefetched, or a write the buffer does not
// take.
func (s *sim) reachesDataDisk(rec *trace.Record) bool {
	switch rec.Op {
	case trace.Read:
		return !s.prefetched[rec.FileID]
	case trace.Write:
		return !s.cfg.WriteBuffer
	}
	return true
}

// nodeArrival handles trace record i reaching its storage node.
func (s *sim) nodeArrival(now simtime.Time, i int) {
	rec := &s.tr.Records[i]
	sentAt := s.offset + simtime.Time(rec.TimeS)
	n := s.nodes[s.assign.Node[rec.FileID]]
	s.noteAccess(rec.FileID, now)
	switch rec.Op {
	case trace.Read:
		switch {
		// A hit is a copy the Prefetch or Adaptive policy fetched, or a
		// file in MAID's cache.
		case s.prefetched[rec.FileID], s.cfg.Policy == MAID && s.maidHit(n, rec.FileID):
			s.res.BufferHits++
			buf, _ := n.bufferFor(rec.FileID)
			s.enqueue(buf, s.newOp(opRead, rec.FileID, rec.Size, sentAt), now)
		default:
			s.res.BufferMisses++
			s.fanToDataDisks(n, s.newOp(opRead, rec.FileID, rec.Size, sentAt), now)
		}
		// The adaptive arm's churn detector sees every read's buffer
		// outcome; it runs after the enqueue so a triggered re-prefetch
		// never queues a speculative fetch ahead of the demand read itself.
		s.adaptiveNoteRead(rec.FileID, now)

	case trace.Write:
		// Inbound data transfer over the node NIC, then the disk write.
		_, end := n.link.Reserve(now, rec.Size)
		s.eng.Post(end, s.on.writeArrived, s.newOp(opWrite, rec.FileID, rec.Size, sentAt))
	}
}

// noteAccess feeds the dynamic re-prefetcher (ReprefetchEvery > 0). The
// popularity window is one re-prefetch interval: PRE-BUD derives
// "popularity based on the number of accesses over a given period of
// time" (Section IV-B), and a cumulative count would keep long-cold files
// pinned in the buffer forever.
func (s *sim) noteAccess(fileID int, now simtime.Time) {
	if s.cfg.ReprefetchEvery <= 0 {
		return
	}
	s.observedCounts[fileID]++
	s.replayed++
	if s.replayed%s.cfg.ReprefetchEvery == 0 {
		s.reprefetch(now)
		for i := range s.observedCounts {
			s.observedCounts[i] = 0
		}
	}
}

// fanToDataDisks enqueues one operation's chunks across the node's data
// disks; with striping off this degenerates to a single enqueue.
func (s *sim) fanToDataDisks(n *simNode, op *request, now simtime.Time) {
	chunks := s.chunksOf(op.fileID)
	op.remaining = len(chunks)
	for _, ch := range chunks {
		r := s.newOp(op.kind, op.fileID, ch.bytes, op.sentAt)
		r.parent = op
		s.enqueue(n.data[ch.disk], r, now)
	}
}

// writeArrived places a fully-received write on the buffer disk (if the
// write-buffer area has room) or directly on the data disk(s).
func (s *sim) writeArrived(now simtime.Time, arg any) {
	r := arg.(*request)
	n := s.nodes[s.assign.Node[r.fileID]]
	if s.cfg.Policy.Prefetches() && s.cfg.WriteBuffer && n.bufferFits(r.fileID, r.size) {
		n.bufferReserve(r.fileID, r.size)
		buf, bi := n.bufferFor(r.fileID)
		// The eventual flush lands on the same disks a direct write
		// would have touched.
		for _, ch := range s.chunksOf(r.fileID) {
			dd := n.data[ch.disk]
			dd.pendingFlushBytes += ch.bytes
			if dd.pendingPerBuffer == nil {
				dd.pendingPerBuffer = make([]int64, len(n.buffers))
			}
			dd.pendingPerBuffer[bi] += ch.bytes
		}
		s.res.BufferedWrites++
		s.enqueue(buf, r, now)
		return
	}
	s.res.DirectWrites++
	s.fanToDataDisks(n, r, now)
}

// enqueue adds a request to a disk queue and makes sure the disk is
// coming up to serve it.
func (s *sim) enqueue(d *simDisk, r *request, now simtime.Time) {
	s.eng.Cancel(&d.timer)
	// The rule tracks client demand, not the policy's own traffic.
	if s.rule != nil && !d.isBuffer && (r.kind == opRead || r.kind == opWrite) {
		s.rule.arrived(d.index, float64(now))
	}
	r.enqAt = now
	d.queue.push(r)
	s.ensureAwake(d, now)
}

// ensureAwake drives the disk toward serving its queue, whatever power
// state it is in: an active or spinning-up disk serves it when done, and a
// spinning-down one wakes for it.
func (s *sim) ensureAwake(d *simDisk, now simtime.Time) {
	switch d.d.State() {
	case disk.Idle:
		s.startService(d, now)
	case disk.Standby:
		s.beginSpinUp(d, now)
	}
}

func (s *sim) beginSpinUp(d *simDisk, now simtime.Time) {
	s.eng.Cancel(&d.timer)
	s.rule.wakes(d.index, float64(now), d.d.Model())
	d.d.BeginSpinUp(now)
	s.eng.Post(now+simtime.Time(d.d.Model().SpinUpSec), s.on.spinUpDone, d)
}

func (s *sim) spinUpDone(now simtime.Time, arg any) {
	d := arg.(*simDisk)
	d.d.CompleteSpinUp(now)
	s.serveOrIdle(d, now)
}

// serveOrIdle starts the next queued request, or runs the idle policy.
func (s *sim) serveOrIdle(d *simDisk, now simtime.Time) {
	if d.queue.len() > 0 {
		s.startService(d, now)
	} else {
		s.onIdle(now, d)
	}
}

func (s *sim) startService(d *simDisk, now simtime.Time) {
	r := d.queue.pop()
	d.cur = r
	r.startAt = now
	d.d.BeginService(now)

	var dur float64
	m := d.d.Model()
	switch {
	case d.isBuffer && (r.kind == opWrite || r.kind == opInsert):
		dur = m.SequentialTime(r.size) // log-structured append
	default:
		dur = m.ServiceTime(r.size)
	}
	s.eng.Post(now+simtime.Time(dur), s.on.diskDone, d)
}

func (s *sim) diskDone(now simtime.Time, arg any) {
	d := arg.(*simDisk)
	r := d.cur
	d.d.EndService(now, r.size)
	d.cur = nil
	s.noteService(d, r, now)

	// op is the operation r belongs to: itself, or the whole it is a chunk of.
	op := r
	if r.parent != nil {
		op = r.parent
		op.remaining--
	}
	whole := op.remaining == 0
	// A completed client operation carries its response event; everything
	// else that is finished is retired below.
	responds := whole && (r.kind == opRead || r.kind == opWrite)
	if responds {
		sent := now
		if r.kind == opRead {
			_, sent = d.node.link.Reserve(now, op.size) // outbound NIC transfer
		}
		s.eng.Post(sent+simtime.Time(s.cfg.RouteLatencySec), s.on.respond, op)
	}

	switch r.kind {
	case opFlush:
		for bi, amount := range r.release {
			d.node.bufUsed[bi] -= amount
		}
		s.res.FlushedBytes += r.size
		s.doneWork()
	case opInsert:
		// Buffer-disk population completed. For dynamic prefetch the
		// file only now becomes servable from the buffer.
		if s.fetching[r.fileID] {
			s.fetching[r.fileID] = false
			s.prefetched[r.fileID] = true
			s.res.PrefetchedFiles++
		}
		s.doneWork()
	case opPrefRead:
		// Dynamic-prefetch fetch read; when the last chunk lands, queue
		// the buffer-disk log append.
		if whole {
			s.insertIntoBuffer(d.node, op.fileID, op.size, now)
		}
	}

	// MAID: a miss serviced by data disks is copied into the buffer
	// disk's cache in LRU order (once, when the whole file is in).
	if s.cfg.Policy == MAID && !d.isBuffer && r.kind == opRead && whole {
		s.maidInsert(d.node, op.fileID, op.size, now)
	}
	if r != op {
		s.retire(r)
	}
	if whole && !responds {
		s.retire(op)
	}
	s.serveOrIdle(d, now)
}

// insertIntoBuffer queues the background log append that populates the
// buffer disk (dynamic prefetch, MAID cache fill).
func (s *sim) insertIntoBuffer(n *simNode, fileID int, size int64, now simtime.Time) {
	buf, _ := n.bufferFor(fileID)
	s.enqueue(buf, s.newOp(opInsert, fileID, size, 0), now)
}

// respond delivers a client operation's response and retires its carrier.
func (s *sim) respond(now simtime.Time, arg any) {
	r := arg.(*request)
	s.record(r, float64(now-r.sentAt))
	s.retire(r)
}

// reprefetch recomputes the popularity ranking from the accesses observed
// so far and reconciles the buffer-disk contents: newly hot files are
// fetched in the background, files that fell out of the top K are evicted
// (metadata-only; the log-structured buffer reclaims space lazily).
func (s *sim) reprefetch(now simtime.Time) {
	ids, err := prefetch.Select(s.observedCounts, s.tr.FileSizes, s.cfg.PrefetchCount, 0)
	if err != nil {
		// Cannot happen: inputs are internally consistent.
		panic(err)
	}
	want := &wanted{ids: ids}

	// Fetch newly hot files. Eviction is capacity-driven only: cooled
	// files stay as free buffer hits until their space is needed (the
	// buffer is a cache, not a mirror of the ranking).
	for _, fid := range ids {
		if s.prefetched[fid] || s.fetching[fid] {
			continue
		}
		s.admitFetch(s.nodes[s.assign.Node[fid]], fid, want, now)
	}
}

// admitFetch starts the background fetch of file fid into its buffer
// disk: it evicts the coldest unwanted copies until the file fits,
// reserves the space and fans the fetch read out to the data disks. It
// reports false, and does nothing past the evictions, when the file cannot
// be made to fit.
func (s *sim) admitFetch(n *simNode, fid int, want *wanted, now simtime.Time) bool {
	size := s.tr.FileSizes[fid]
	_, bi := n.bufferFor(fid)
	for !n.bufferFits(fid, size) {
		if !s.evictColdest(n, bi, want) {
			return false
		}
	}
	n.bufferReserve(fid, size)
	s.fetching[fid] = true
	s.addWork(1)
	s.fanToDataDisks(n, s.newOp(opPrefRead, fid, size, now), now)
	return true
}

// wanted is the ranking a re-prefetch fetches by. Only an eviction asks
// whether it holds a file, and only when a buffer disk is full, so the set
// is built the first time one asks.
type wanted struct {
	ids []int
	set prefetch.Set
}

func (w *wanted) has(fid int) bool {
	if w.set == nil {
		w.set = prefetch.NewSet(w.ids)
	}
	return w.set[fid]
}

// evictColdest drops one prefetched file on the node's given buffer disk
// that the current ranking no longer wants; it reports whether anything
// was evicted.
func (s *sim) evictColdest(n *simNode, bufIdx int, want *wanted) bool {
	for fid, in := range s.prefetched { // the lowest id goes first
		if in && !want.has(fid) && s.assign.Node[fid] == n.id && fid%len(n.buffers) == bufIdx {
			s.prefetched[fid] = false
			n.bufferRelease(fid, s.tr.FileSizes[fid])
			return true
		}
	}
	return false
}

func (s *sim) record(r *request, rt float64) {
	s.noteResponse(r, rt)
	s.resp.Add(rt)
	switch {
	case r.kind == opWrite:
		s.writeResp.Add(rt)
	case s.writes > 0:
		s.readResp.Add(rt)
	}
	s.doneWork()
}

// addWork registers n new work items (flushes, background inserts).
func (s *sim) addWork(n int) { s.outstanding += n }

// doneWork retires one work item; at zero the run quiesces.
func (s *sim) doneWork() {
	s.outstanding--
	if s.outstanding == 0 {
		s.quiesce()
	}
}

// quiesce cancels every pending power-management event: the experiment is
// over, and a timer firing later would only add measurement time in which
// nothing happens (the paper's testbed stopped measuring when the trace
// completed). In-flight spin-downs still finish (bounded by SpinDownSec).
func (s *sim) quiesce() {
	for _, n := range s.nodes {
		for _, d := range n.data {
			s.eng.Cancel(&d.timer)
		}
	}
}

// onIdle runs every time a disk's queue drains (and once at replay start).
// It flushes pending write-buffer data and then asks the arm's sleep rule
// (Section III-C).
func (s *sim) onIdle(now simtime.Time, arg any) {
	d := arg.(*simDisk)
	if d.isBuffer {
		return // the buffer disk must stay available (Section III-C)
	}

	// Piggyback the write-buffer flush on an awake, idle disk.
	if d.pendingFlushBytes > 0 && d.d.State() == disk.Idle {
		s.addWork(1)
		s.enqueue(d, s.takeFlush(d), now)
		return
	}
	if s.rule != nil {
		s.apply(d, now, s.rule.drained(d.index, float64(now), d.idle(), d.d.Model()))
	}
}

// timerFired hands a data disk's timer to the sleep rule that armed it.
func (s *sim) timerFired(now simtime.Time, arg any) {
	d := arg.(*simDisk)
	s.apply(d, now, s.rule.fired(d.index, float64(now), d.idle(), d.d.Model()))
}

// apply carries out a sleep rule's answer for disk d.
func (s *sim) apply(d *simDisk, now simtime.Time, a sleepAction) {
	switch {
	case a.down:
		s.beginSpinDown(d, now)
	case a.wake:
		s.beginSpinUp(d, now)
	}
	if a.arm {
		s.eng.Arm(&d.timer, simtime.Time(a.at), s.on.timer, d)
	}
}

// takeFlush turns the disk's pending write-buffer bytes into one flush.
func (s *sim) takeFlush(d *simDisk) *request {
	r := s.newOp(opFlush, 0, d.pendingFlushBytes, 0)
	r.release = d.pendingPerBuffer
	d.pendingFlushBytes = 0
	d.pendingPerBuffer = nil
	return r
}

// maidHit reports whether the file is in the node's MAID cache and, if so,
// promotes it to most recently used.
func (s *sim) maidHit(n *simNode, fileID int) bool {
	el, ok := n.cache[fileID]
	if !ok {
		return false
	}
	n.cacheLRU.MoveToFront(el)
	return true
}

// maidInsert copies a just-missed file into the node's buffer-disk cache:
// LRU entries are evicted until the file fits, then a background write is
// queued on the buffer disk.
func (s *sim) maidInsert(n *simNode, fileID int, size int64, now simtime.Time) {
	if _, ok := n.cache[fileID]; ok {
		return // raced with an earlier insert for the same file
	}
	if size > n.bufCap {
		return // can never fit
	}
	_, bi := n.bufferFor(fileID)
	for !n.bufferFits(fileID, size) {
		// Evict LRU entries that live on the same buffer disk.
		evicted := false
		for el := n.cacheLRU.Back(); el != nil; el = el.Prev() {
			victim := el.Value.(int)
			if victim%len(n.buffers) != bi {
				continue
			}
			n.cacheLRU.Remove(el)
			delete(n.cache, victim)
			n.bufferRelease(victim, s.tr.FileSizes[victim])
			evicted = true
			break
		}
		if !evicted {
			return
		}
	}
	n.bufferReserve(fileID, size)
	n.cache[fileID] = n.cacheLRU.PushFront(fileID)
	s.addWork(1)
	s.insertIntoBuffer(n, fileID, size, now)
}

// idle reports that the disk is spinning with nothing to do.
func (d *simDisk) idle() bool {
	return d.d.State() == disk.Idle && d.queue.len() == 0
}

func (s *sim) beginSpinDown(d *simDisk, now simtime.Time) {
	d.d.BeginSpinDown(now)
	s.eng.Post(now+simtime.Time(d.d.Model().SpinDownSec), s.on.spinDownDone, d)
}

func (s *sim) spinDownDone(now simtime.Time, arg any) {
	d := arg.(*simDisk)
	d.d.CompleteSpinDown(now)
	if d.queue.len() > 0 {
		s.beginSpinUp(d, now)
	}
}

// finalFlush drains any write-buffer data still unflushed when the trace
// completes: the affected data disks are woken one last time.
func (s *sim) finalFlush() {
	for {
		pending := false
		for _, n := range s.nodes {
			for _, d := range n.data {
				if d.pendingFlushBytes > 0 {
					pending = true
					s.addWork(1)
					s.eng.Post(s.eng.Now(), s.on.flushNow, d)
				}
			}
		}
		if !pending {
			return
		}
		s.eng.Run()
	}
}

// flushNow queues the disk's pending write-buffer bytes as one flush.
func (s *sim) flushNow(now simtime.Time, arg any) {
	d := arg.(*simDisk)
	s.enqueue(d, s.takeFlush(d), now)
}

// finalize integrates all remaining dwell energy and assembles the Result.
func (s *sim) finalize() {
	makespan := s.eng.Now()
	s.res.EventQueueMax = s.eng.MaxQueueLen()
	s.res.MakespanSec = float64(makespan)
	s.res.Requests = len(s.tr.Records)

	for _, n := range s.nodes {
		for _, b := range n.buffers {
			b.d.Advance(makespan)
			s.addDisk(b.d.Stats())
		}
		for _, d := range n.data {
			d.d.Advance(makespan)
			s.addDisk(d.d.Stats())
		}
	}

	if s.adapt != nil {
		s.res.AdaptiveBudgetVetoes = s.adapt.sleep.vetoes
	}
	s.res.BaseEnergyJ = s.cfg.NodeBasePowerW * float64(makespan) * float64(len(s.nodes))
	s.res.TotalEnergyJ = s.res.BaseEnergyJ + s.res.DiskEnergyJ
	s.res.Response = s.resp.Summarize()
	s.res.ReadResponse = s.res.Response
	if s.writes > 0 {
		s.res.ReadResponse = s.readResp.Summarize()
	}
	s.res.WriteResponse = s.writeResp.Summarize()
}

func (s *sim) addDisk(st disk.Stats) {
	s.res.PerDisk = append(s.res.PerDisk, st)
	s.res.DiskEnergyJ += st.EnergyJ
	s.res.SpinUps += st.SpinUps
	s.res.SpinDowns += st.SpinDowns
	s.res.Transitions += st.Transitions()
}

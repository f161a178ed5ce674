package fs

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"eevfs/internal/proto"
	"eevfs/internal/telemetry"
	"eevfs/internal/wal"
)

// replog is the replicated op log of a group of servers (DESIGN.md §17).
// The primary sequences every op its state machine has undergone —
// densely, batched by group commit — into its on-disk log and out to the
// followers, which apply ops in seq order, ack duplicates idempotently
// and refuse gaps; a follower out of sync is repaired by snapshot.
// Followers watch the primary and, when it dies, elect the one with the
// highest seq (ties to the lowest index), which bumps the epoch.
//
// The model is crash-stop with epoch fencing: a resurrected stale primary
// is demoted by the first frame it exchanges with the newer epoch, but
// there is no quorum — an acked op survives a primary crash iff one
// in-sync follower does. It is deliberately not a consensus protocol.
//
// replog does not know what an op means: it reads an op's Seq and a
// snapshot's Epoch, Seq and From; the rest is the state machine's.

// stateMachine is what a replog replicates. Every call replog makes is
// under the log lock.
type stateMachine interface {
	// apply performs one op out of the log: a follower's append, a
	// restart's replay. (On the primary the effect precedes commit.)
	apply(op proto.RepOp) error
	// snapshot captures the state (durable: as a checkpoint stores it);
	// replog stamps Epoch, Seq and From.
	snapshot(durable bool) proto.RepSnapshot
	restore(snap proto.RepSnapshot) error
	// durable is the form op takes in the on-disk log.
	durable(op proto.RepOp) proto.RepOp
}

// caller is one round trip to a peer; *proto.Endpoint is the real one.
type caller interface {
	CallCtx(t proto.Type, payload []byte, sc telemetry.SpanContext) (proto.Type, []byte, error)
}

// peer is this member's view of one other group member.
type peer struct {
	addr  string
	ep    caller // appends and snapshots
	probe caller // status probes: single attempt, no retries

	// Owned by the log lock's holder and its per-peer fan-out goroutine.
	synced bool
	acked  uint64
}

type replog struct {
	cfg       ServerConfig // Peers, Self, StateFile, Health.FailThreshold, ReplChaosSilentAfter
	sm        stateMachine
	peers     []*peer // index-aligned with cfg.Peers, nil at Self; none when standalone
	onPromote func()  // runs after this member has become primary

	primary    atomic.Bool
	primaryIdx atomic.Int64
	epoch      atomic.Uint64
	forceElect atomic.Bool
	watchFails int // consecutive failed primary probes (tick-owned)

	// mu orders ops into the log — on disk (wal, nil without a StateFile)
	// and out to the followers; seq, the last one applied, moves under mu
	// and is read lock-free. queue (under the leaf lock qMu) holds ops
	// waiting for the next mu holder to sequence them as one batch.
	mu    sync.Mutex
	seq   atomic.Uint64
	wal   *wal.Log
	qMu   sync.Mutex
	queue []proto.RepOp

	// plantNoFence is the fencing oracle's planted bug: frames from a
	// stale epoch are accepted.
	plantNoFence bool

	lagG         *telemetry.Gauge
	roleG        *telemetry.Gauge
	failoversC   *telemetry.Counter
	batchH       *telemetry.Histogram // ops per RepAppendReq
	logBytesC    *telemetry.Counter
	checkpointsC *telemetry.Counter
}

// openReplog builds the log over sm and restores what a previous run
// persisted: the checkpoint (one frame holding a snapshot), then the
// valid prefix of the ops it sequenced or applied since.
func openReplog(cfg ServerConfig, sm stateMachine, peers []*peer) (*replog, error) {
	l := &replog{
		cfg: cfg, sm: sm, peers: peers,
		lagG:         cfg.Metrics.Gauge("server.repl.lag"),
		roleG:        cfg.Metrics.Gauge("server.repl.primary"),
		failoversC:   cfg.Metrics.Counter("server.repl.failovers"),
		batchH:       cfg.Metrics.Histogram("server.repl.batch", []float64{1, 2, 4, 8, 16, 32, 64, 128}),
		logBytesC:    cfg.Metrics.Counter("persist.log.bytes"),
		checkpointsC: cfg.Metrics.Counter("persist.checkpoints"),
	}
	if cfg.StateFile == "" {
		return l, nil
	}
	w, err := wal.Open(cfg.StateFile, cfg.StateFile+".wal", l.loadCheckpoint, l.replay)
	if err != nil {
		return nil, fmt.Errorf("fs: restoring server state: %w", err)
	}
	l.wal = w
	return l, nil
}

func (l *replog) loadCheckpoint(raw []byte) error {
	payload, err := wal.Unframe(raw)
	if err != nil {
		return err
	}
	snap, err := proto.DecodeRepSnapshot(payload)
	if err != nil {
		return err
	}
	if snap.Epoch > 0 {
		l.epoch.Store(snap.Epoch)
	}
	return l.install(snap)
}

// replay applies one logged op on top of the checkpoint. Ops the
// checkpoint already reflects (a crash between installing it and
// emptying the log leaves them behind) are duplicates; a gap means
// records were lost from the middle, which no torn tail explains.
func (l *replog) replay(raw []byte) error {
	op, err := proto.DecodeRepOp(raw)
	if err != nil {
		return err
	}
	_, err = l.next(op)
	return err
}

// next applies op if it is the one the log expects: a seq at or below
// the last applied is a duplicate (false, nil), one past the next a gap.
func (l *replog) next(op proto.RepOp) (bool, error) {
	if have := l.seq.Load(); op.Seq <= have {
		return false, nil
	} else if op.Seq != have+1 {
		return false, fmt.Errorf("%w: have %d, got %d", errLogGap, have, op.Seq)
	}
	if err := l.sm.apply(op); err != nil {
		return false, err
	}
	l.seq.Store(op.Seq)
	return true, nil
}

func (l *replog) install(snap proto.RepSnapshot) error {
	if err := l.sm.restore(snap); err != nil {
		return err
	}
	l.seq.Store(snap.Seq)
	return nil
}

// boot decides the initial role, before the listener accepts: standalone
// is primary forever; a member restarting into a running group follows
// the primary it finds; otherwise index 0 leads and the rest watch it.
// probes reach the peers on short deadlines (see bootProbeTimeout).
func (l *replog) boot(probes []caller) {
	if len(l.peers) == 0 {
		l.primary.Store(true)
		l.roleG.Set(1)
		return
	}
	if l.epoch.Load() == 0 {
		l.epoch.Store(1) // a checkpoint may already have restored a later epoch
	}
	logf := l.cfg.Logger.Printf
	if idx, epoch, ok := l.incumbent(l.scan(probes)); ok {
		l.adoptEpoch(epoch)
		l.primaryIdx.Store(int64(idx))
		logf("replication: joining as follower of %s (epoch %d)", l.cfg.Peers[idx], epoch)
	} else if l.cfg.Self == 0 {
		l.primary.Store(true)
		l.roleG.Set(1)
		logf("replication: starting as primary (epoch %d)", l.epoch.Load())
	} else {
		logf("replication: starting as follower of %s", l.cfg.Peers[0])
	}
}

// adoptEpoch raises the local epoch to at least e.
func (l *replog) adoptEpoch(e uint64) {
	for {
		cur := l.epoch.Load()
		if e <= cur || l.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// scan probes every peer's status concurrently — over via when not nil,
// else over the peer's own probe; unreachable peers (and self) stay nil.
func (l *replog) scan(via []caller) []*proto.RepStatusResp {
	out := make([]*proto.RepStatusResp, len(l.peers))
	var wg sync.WaitGroup
	for i, p := range l.peers {
		if p == nil {
			continue
		}
		c := p.probe
		if via != nil {
			c = via[i]
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, payload, err := c.CallCtx(proto.TRepStatusReq, nil, telemetry.SpanContext{})
			if err != nil {
				return
			}
			if st, derr := proto.DecodeRepStatusResp(payload); derr == nil {
				out[i] = &st
			}
		}(i)
	}
	wg.Wait()
	return out
}

// incumbent finds the primary a scanned group already has: the
// lowest-indexed peer claiming the role in maxEpoch, the newest epoch
// anyone — this member included — has seen.
func (l *replog) incumbent(sts []*proto.RepStatusResp) (idx int, maxEpoch uint64, ok bool) {
	maxEpoch = l.epoch.Load()
	for _, st := range sts {
		if st != nil && st.Epoch > maxEpoch {
			maxEpoch = st.Epoch
		}
	}
	for idx, st := range sts {
		if st != nil && st.Primary && st.Epoch == maxEpoch {
			return idx, maxEpoch, true
		}
	}
	return 0, maxEpoch, false
}

// isPrimary reports whether this member currently sequences ops.
func (l *replog) isPrimary() bool { return l.primary.Load() }

// notPrimaryErr builds the typed rejection a follower returns to
// clients, with the best redirect hint it has.
func (l *replog) notPrimaryErr() error {
	idx := int(l.primaryIdx.Load())
	if idx == l.cfg.Self || idx < 0 || idx >= len(l.cfg.Peers) {
		return &notPrimaryError{}
	}
	return &notPrimaryError{primary: l.cfg.Peers[idx]}
}

// commit makes one op the state machine has already undergone durable and
// replicated before the caller acks it. It is a group commit: the op is
// queued, then the caller takes mu and sequences everything queued — its
// own op and every op that arrived while the previous batch was in
// flight — as one log append and one fan-out. A caller that gets mu finds
// its op in the queue or already committed by an earlier holder (who
// drained the queue and finished before unlocking), so returning after
// the unlock means "committed" with no further signalling. Holding mu
// across the fan-out keeps the log ordered; batching keeps that from
// costing a round trip per op. sp parents the spans of the batch led.
func (l *replog) commit(op proto.RepOp, sp *telemetry.Span) {
	l.qMu.Lock()
	l.queue = append(l.queue, op)
	l.qMu.Unlock()

	l.mu.Lock()
	defer l.mu.Unlock()
	l.qMu.Lock()
	batch := l.queue
	l.queue = nil
	l.qMu.Unlock()
	if len(batch) > 0 {
		l.sequenceLocked(batch, sp.Context())
	}
}

// propose commits an op that must be built under the log lock: build
// runs with mu held, on the primary of a group, and its op is sequenced
// before mu is released — so what build folds into the state machine is
// in a snapshot exactly when the op is at or below the snapshot's seq.
func (l *replog) propose(build func() (proto.RepOp, bool)) {
	if len(l.peers) == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.primary.Load() {
		return
	}
	if op, ok := build(); ok {
		l.sequenceLocked([]proto.RepOp{op}, telemetry.SpanContext{})
	}
}

// sequenceLocked assigns the next dense seqs to ops, appends them to the
// on-disk log and ships them.
func (l *replog) sequenceLocked(ops []proto.RepOp, sc telemetry.SpanContext) {
	for i := range ops {
		ops[i].Seq = l.seq.Add(1)
	}
	l.logLocked(ops)
	l.shipLocked(ops, sc)
}

// shipLocked is the one fan-out: an in-sync peer gets ops as an append,
// a peer marked out of sync the full snapshot instead; with no ops it is
// a tick's repair pass. A peer that refuses or cannot be reached is
// marked out of sync for the next pass. sc, when nonzero, parents a
// per-peer span, so append latency shows inside the op's trace.
func (l *replog) shipLocked(ops []proto.RepOp, sc telemetry.SpanContext) {
	if len(l.peers) == 0 {
		return // standalone: the log is the only replica
	}
	var payload []byte
	if len(ops) > 0 {
		l.batchH.Observe(float64(len(ops)))
		if n := l.cfg.ReplChaosSilentAfter; n > 0 && l.seq.Load() > uint64(n) {
			// Test-only injection: the primary stops replicating but keeps
			// acking, so a later failover must trip the convergence oracle.
			return
		}
		payload = proto.RepAppendReq{Epoch: l.epoch.Load(), From: int64(l.cfg.Self), Ops: ops}.Encode()
	}
	var snap []byte // built at most once, only if some peer needs it
	var wg sync.WaitGroup
	seq := l.seq.Load()
	for _, p := range l.peers {
		if p == nil || (p.synced && payload == nil) {
			continue
		}
		if !p.synced && snap == nil {
			// Built here (cheap, local) so the goroutines only do network IO.
			snap = l.snapshotLocked(false).Encode()
		}
		wg.Add(1)
		go func(p *peer) {
			defer wg.Done()
			if !p.synced {
				if _, _, err := p.ep.CallCtx(proto.TRepSnapshotReq, snap, telemetry.SpanContext{}); err != nil {
					l.demotedBy(err)
				} else {
					p.synced, p.acked = true, seq // in sync at the snapshot's seq
				}
				return
			}
			psp := l.cfg.Tracer.StartChild(sc, "server", "repl.append.peer")
			psp.Annotate("peer", p.addr)
			_, resp, err := p.ep.CallCtx(proto.TRepAppendReq, payload, psp.Context())
			psp.End(err)
			if err == nil {
				ack, derr := proto.DecodeRepAppendResp(resp)
				p.acked, p.synced = ack.LastSeq, derr == nil
			} else if !l.demotedBy(err) {
				p.synced = false // gap, refused op or transport fault: snapshot next pass
			}
		}(p)
	}
	wg.Wait()

	// The lag gauge: how many ops the slowest in-sync follower is behind;
	// out-of-sync peers count as fully lagging.
	var worst uint64
	for _, p := range l.peers {
		if p == nil {
			continue
		}
		lag := seq
		if p.synced && p.acked <= seq {
			lag = seq - p.acked
		}
		worst = max(worst, lag)
	}
	l.lagG.Set(float64(worst))
}

// demotedBy reports whether a peer's answer was a stale-epoch rejection:
// a newer primary exists, so this member steps down and elects next tick.
func (l *replog) demotedBy(err error) bool {
	var re *proto.RemoteError
	if !errors.As(err, &re) || re.Code != proto.CodeStaleEpoch {
		return false
	}
	if l.primary.CompareAndSwap(true, false) {
		l.roleG.Set(0)
		l.forceElect.Store(true)
		l.cfg.Logger.Printf("replication: demoted by a newer epoch")
	}
	return true
}

// snapshotLocked is the state machine's snapshot at the log's position.
func (l *replog) snapshotLocked(durable bool) proto.RepSnapshot {
	snap := l.sm.snapshot(durable)
	snap.Epoch, snap.Seq, snap.From = l.epoch.Load(), l.seq.Load(), int64(l.cfg.Self)
	return snap
}

// logLocked appends sequenced ops to the on-disk log in one write and
// checkpoints once it has outgrown the last one. A failed append is
// logged, not fatal.
func (l *replog) logLocked(ops []proto.RepOp) {
	if l.wal == nil || len(ops) == 0 {
		return
	}
	recs := make([][]byte, len(ops))
	for i, op := range ops {
		recs[i] = l.sm.durable(op).Encode()
	}
	before := l.wal.Size()
	if err := l.wal.Append(recs...); err != nil {
		l.cfg.Logger.Printf("state log append failed: %v", err)
		return
	}
	l.logBytesC.Add(l.wal.Size() - before)
	if l.wal.NeedsCheckpoint() {
		l.checkpointLocked()
	}
}

// checkpointLocked writes the durable snapshot as one frame at StateFile
// and empties the log.
func (l *replog) checkpointLocked() {
	if l.wal == nil {
		return
	}
	if err := l.wal.Checkpoint(wal.AppendFrame(nil, l.snapshotLocked(true).Encode())); err != nil {
		l.cfg.Logger.Printf("state checkpoint failed: %v", err)
		return
	}
	l.checkpointsC.Inc()
}

// close checkpoints and closes the on-disk log: a clean shutdown leaves
// it empty, so the next start replays nothing.
func (l *replog) close() error {
	if l.wal == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.checkpointLocked()
	return l.wal.Close()
}

// ops are the server's rows for the three server-to-server frames, valid
// in every role: status must stay answerable even mid-election.
func (l *replog) ops() map[proto.Type]op {
	return map[proto.Type]op{
		proto.TRepStatusReq: {name: "repl.status", rpc: func([]byte, *telemetry.Span) (reply, error) {
			return reply{t: proto.TRepStatusResp, body: l.status().Encode()}, nil
		}},
		proto.TRepAppendReq: {name: "repl.append", rpc: answer(proto.DecodeRepAppendReq, proto.TRepAppendResp,
			func(req proto.RepAppendReq, _ *telemetry.Span) (proto.RepAppendResp, error) {
				return l.handleAppend(req)
			})},
		proto.TRepSnapshotReq: {name: "repl.snapshot", rpc: answer(proto.DecodeRepSnapshot, proto.TRepSnapshotResp,
			func(snap proto.RepSnapshot, _ *telemetry.Span) (noBody, error) {
				return noBody{}, l.handleSnapshot(snap)
			})},
	}
}

// errNoGroup refuses a peer's log on a standalone server.
var errNoGroup = errors.New("replication: server is not part of a group")

// status answers "who are you": role, epoch, log position. Lock-free so
// a primary mid-fan-out still answers elections honestly.
func (l *replog) status() proto.RepStatusResp {
	return proto.RepStatusResp{
		Primary:    l.primary.Load(),
		Epoch:      l.epoch.Load(),
		Seq:        l.seq.Load(),
		PrimaryIdx: l.primaryIdx.Load(),
	}
}

// handleAppend is the follower side of the op log: epoch fencing,
// idempotent duplicates, ordered applies, loud gaps. A refusal goes back
// to the primary, which falls back to a snapshot.
func (l *replog) handleAppend(req proto.RepAppendReq) (proto.RepAppendResp, error) {
	if len(l.peers) == 0 {
		return proto.RepAppendResp{}, errNoGroup
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.fenceLocked(req.Epoch, req.From); err != nil {
		return proto.RepAppendResp{LastSeq: l.seq.Load()}, err
	}
	// Whatever part of the batch applies reaches the log as one append,
	// also when a later op of the batch is refused.
	applied := make([]proto.RepOp, 0, len(req.Ops))
	var err error
	for _, op := range req.Ops {
		var ok bool
		if ok, err = l.next(op); err != nil {
			break
		} else if ok {
			applied = append(applied, op)
		}
	}
	l.logLocked(applied)
	return proto.RepAppendResp{LastSeq: l.seq.Load()}, err
}

// handleSnapshot replaces the follower's state wholesale.
func (l *replog) handleSnapshot(snap proto.RepSnapshot) error {
	if len(l.peers) == 0 {
		return errNoGroup
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.fenceLocked(snap.Epoch, snap.From); err != nil {
		return err
	}
	if err := l.install(snap); err != nil {
		return err
	}
	// The checkpoint also makes the epoch just adopted durable.
	l.checkpointLocked()
	return nil
}

// fenceLocked is epoch fencing: a frame from an older epoch is refused; a
// newer one demotes a primary and re-points the follower at its sender.
func (l *replog) fenceLocked(epoch uint64, from int64) error {
	cur := l.epoch.Load()
	if (epoch < cur || (epoch == cur && l.primary.Load())) && !l.plantNoFence {
		return fmt.Errorf("%w: local %d, got %d", errStaleEpoch, cur, epoch)
	}
	if epoch > cur {
		l.epoch.Store(epoch)
		if l.primary.CompareAndSwap(true, false) {
			l.roleG.Set(0)
			l.cfg.Logger.Printf("replication: stepping down, peer %d has epoch %d", from, epoch)
		}
	}
	if from >= 0 && int(from) < len(l.cfg.Peers) {
		l.primaryIdx.Store(from)
	}
	return nil
}

// tick is the replication heartbeat. A primary snapshot-repairs followers
// marked out of sync. A follower probes the primary it believes in:
// FailThreshold consecutive failures (or an explicit demotion signal)
// trigger an election.
func (l *replog) tick() {
	if len(l.peers) == 0 {
		return
	}
	if l.primary.Load() {
		l.mu.Lock()
		l.shipLocked(nil, telemetry.SpanContext{})
		l.mu.Unlock()
		return
	}
	idx := int(l.primaryIdx.Load())
	if l.forceElect.CompareAndSwap(true, false) || idx == l.cfg.Self || idx < 0 || idx >= len(l.peers) {
		l.elect()
		return
	}
	_, payload, err := l.peers[idx].probe.CallCtx(proto.TRepStatusReq, nil, telemetry.SpanContext{})
	if err == nil {
		if st, derr := proto.DecodeRepStatusResp(payload); derr == nil {
			l.adoptEpoch(st.Epoch)
			l.watchFails = 0
			if !st.Primary {
				// It answered but no longer claims primary (it was demoted,
				// or never promoted): hunt for the real one now.
				l.elect()
			}
			return
		}
	}
	if l.watchFails++; l.watchFails >= l.cfg.Health.FailThreshold {
		l.watchFails = 0
		l.elect()
	}
}

// elect probes every peer: an incumbent is adopted; otherwise the
// reachable follower (self included) with the highest seq — ties to the
// lowest index — wins. Every follower computes the same winner from the
// same inputs; only the winner promotes itself, the rest re-point.
func (l *replog) elect() {
	sts := l.scan(nil)
	idx, maxEpoch, ok := l.incumbent(sts)
	if ok {
		l.adoptEpoch(maxEpoch)
		l.primaryIdx.Store(int64(idx))
		return
	}
	winner, winnerSeq := l.cfg.Self, l.seq.Load()
	for idx, st := range sts {
		if st == nil || st.Primary {
			continue
		}
		if st.Seq > winnerSeq || (st.Seq == winnerSeq && idx < winner) {
			winner, winnerSeq = idx, st.Seq
		}
	}
	if winner != l.cfg.Self {
		l.primaryIdx.Store(int64(winner))
		return
	}
	// Promote: bump the epoch past everything seen and mark every peer
	// for snapshot resync.
	l.mu.Lock()
	l.adoptEpoch(maxEpoch + 1)
	l.primary.Store(true)
	l.primaryIdx.Store(int64(l.cfg.Self))
	for _, p := range l.peers {
		if p != nil {
			p.synced = false
		}
	}
	epoch, seq := l.epoch.Load(), l.seq.Load()
	l.checkpointLocked() // the op log carries no epochs; make the new one durable
	l.mu.Unlock()
	l.roleG.Set(1)
	l.failoversC.Inc()
	l.cfg.Logger.Printf("replication: promoted to primary (epoch %d, seq %d)", epoch, seq)
	if l.onPromote != nil {
		l.onPromote()
	}
}

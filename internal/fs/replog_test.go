package fs

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"eevfs/internal/proto"
	"eevfs/internal/telemetry"
)

// sliceMachine is the smallest state machine a replog can drive: its
// state is the names of the ops applied, in order.
type sliceMachine struct {
	names  []string
	refuse string // apply fails on an op of this name
}

func (m *sliceMachine) apply(op proto.RepOp) error {
	if op.Name == m.refuse {
		return fmt.Errorf("machine refuses %q", op.Name)
	}
	m.names = append(m.names, op.Name)
	return nil
}

func (m *sliceMachine) snapshot(bool) (snap proto.RepSnapshot) {
	for _, name := range m.names {
		snap.Files = append(snap.Files, proto.RepFile{Name: name})
	}
	return snap
}

func (m *sliceMachine) restore(snap proto.RepSnapshot) error {
	m.names = nil
	for _, f := range snap.Files {
		m.names = append(m.names, f.Name)
	}
	return nil
}

func (m *sliceMachine) durable(op proto.RepOp) proto.RepOp { return op }

// memGroup is a replication group with no Server, no listener and no
// clock: the members reach each other through memCaller, and time passes
// only when the test calls tick.
type memGroup struct {
	t    *testing.T
	logs []*replog
	sms  []*sliceMachine
	down []bool
	dir  string // StateFiles live here
}

// memCaller delivers a frame to member `to` the way the wire would: a
// dead member is a transport error, a handler's error comes back as a
// RemoteError carrying its wire code and text.
type memCaller struct {
	g  *memGroup
	to int
}

func (c memCaller) CallCtx(t proto.Type, payload []byte, _ telemetry.SpanContext) (proto.Type, []byte, error) {
	if c.g.down[c.to] {
		return 0, nil, &proto.TransportError{Addr: fmt.Sprint(c.to), Attempts: 1, Err: errors.New("member is down")}
	}
	r, err := c.g.logs[c.to].ops()[t].rpc(payload, nil)
	if err != nil {
		return 0, nil, &proto.RemoteError{Code: errCode(err), Msg: err.Error()}
	}
	return r.t, r.body, nil
}

func (g *memGroup) cfg(i int) ServerConfig {
	return ServerConfig{
		Peers: make([]string, len(g.logs)), Self: i, Logger: quietLog,
		StateFile: filepath.Join(g.dir, fmt.Sprintf("state%d", i)),
		Health:    HealthConfig{FailThreshold: 2},
	}
}

// open (re)builds member i over a fresh machine from whatever its
// StateFile holds.
func (g *memGroup) open(i int) {
	g.t.Helper()
	peers := make([]*peer, len(g.logs))
	for j := range peers {
		if j != i {
			peers[j] = &peer{addr: fmt.Sprint(j), ep: memCaller{g, j}, probe: memCaller{g, j}}
		}
	}
	g.sms[i] = &sliceMachine{}
	l, err := openReplog(g.cfg(i), g.sms[i], peers)
	if err != nil {
		g.t.Fatal(err)
	}
	g.logs[i] = l
}

func newMemGroup(t *testing.T, n int) *memGroup {
	g := &memGroup{t: t, logs: make([]*replog, n), sms: make([]*sliceMachine, n), down: make([]bool, n), dir: t.TempDir()}
	for i := range g.logs {
		g.open(i)
	}
	for _, l := range g.logs {
		l.boot(nil)
	}
	return g
}

// do runs one op on member i as a primary's handler would: the machine
// undergoes it, then the log commits it.
func (g *memGroup) do(i int, name string) {
	g.t.Helper()
	op := proto.RepOp{Kind: proto.RepOpDelete, Name: name}
	if err := g.sms[i].apply(op); err != nil {
		g.t.Fatal(err)
	}
	g.logs[i].commit(op, nil)
}

// fingerprint is member i's snapshot with the member identity zeroed.
func (g *memGroup) fingerprint(i int) []byte {
	l := g.logs[i]
	l.mu.Lock()
	defer l.mu.Unlock()
	snap := l.snapshotLocked(false)
	snap.From = 0
	return snap.Encode()
}

func (g *memGroup) wantNames(i int, want ...string) {
	g.t.Helper()
	if !reflect.DeepEqual(g.sms[i].names, want) {
		g.t.Fatalf("member %d holds %v, want %v", i, g.sms[i].names, want)
	}
}

func (g *memGroup) wantPrimary(want int) {
	g.t.Helper()
	for i, l := range g.logs {
		if !g.down[i] && l.isPrimary() != (i == want) {
			g.t.Fatalf("member %d primary=%v, want member %d to lead", i, l.isPrimary(), want)
		}
	}
}

// TestReplogSnapshotIsFoldOfOps: a follower fed by appends, a follower
// repaired by snapshot and a member restarted from its checkpoint and
// log all hold the primary's state, byte for byte.
func TestReplogSnapshotIsFoldOfOps(t *testing.T) {
	g := newMemGroup(t, 3)
	g.wantPrimary(0)
	g.do(0, "a") // every peer starts out of sync: this one travels by snapshot
	g.do(0, "b")
	g.logs[0].mu.Lock()
	g.logs[0].peers[2].synced = false
	g.logs[0].mu.Unlock()
	g.do(0, "c") // append to 1, snapshot to 2
	g.down[2] = true
	g.do(0, "d") // 2 misses it and is marked out of sync
	g.wantNames(2, "a", "b", "c")
	g.down[2] = false
	g.logs[0].tick() // the repair pass
	for i := range g.logs {
		g.wantNames(i, "a", "b", "c", "d")
		if !bytes.Equal(g.fingerprint(i), g.fingerprint(0)) {
			t.Fatalf("member %d's snapshot differs from the primary's", i)
		}
	}

	// Restart replay: member 1 crashes (no close, so no final checkpoint)
	// and comes back from checkpoint + log with the same state and seq.
	before := g.fingerprint(1)
	g.open(1)
	g.wantNames(1, "a", "b", "c", "d")
	if !bytes.Equal(before, g.fingerprint(1)) {
		t.Fatal("a restart did not replay to the state it crashed in")
	}
}

// TestReplogAppendRules: duplicates ack idempotently, gaps and stale
// epochs are refused with their typed codes, and the part of a batch
// that applied before a refused op is logged.
func TestReplogAppendRules(t *testing.T) {
	g := newMemGroup(t, 3)
	f := g.logs[1]
	ops := []proto.RepOp{{Seq: 1, Name: "a"}, {Seq: 2, Name: "b"}}
	req := proto.RepAppendReq{Epoch: 1, From: 0, Ops: ops}
	for round := 0; round < 2; round++ { // the second delivery is a duplicate
		resp, err := f.handleAppend(req)
		if err != nil || resp.LastSeq != 2 {
			t.Fatalf("delivery %d: %+v, %v", round, resp, err)
		}
		g.wantNames(1, "a", "b")
	}

	codeOf := func(payload []byte) proto.Code {
		var re *proto.RemoteError
		if _, _, err := (memCaller{g, 1}).CallCtx(proto.TRepAppendReq, payload, telemetry.SpanContext{}); errors.As(err, &re) {
			return re.Code
		}
		return proto.CodeGeneric
	}
	gap := proto.RepAppendReq{Epoch: 1, Ops: []proto.RepOp{{Seq: 5, Name: "z"}}}
	if _, err := f.handleAppend(gap); !errors.Is(err, errLogGap) || codeOf(gap.Encode()) != proto.CodeLogGap {
		t.Fatalf("gap: %v (wire code %v)", err, codeOf(gap.Encode()))
	}
	stale := proto.RepAppendReq{Epoch: 0, Ops: []proto.RepOp{{Seq: 3, Name: "stale"}}}
	if _, err := f.handleAppend(stale); !errors.Is(err, errStaleEpoch) || codeOf(stale.Encode()) != proto.CodeStaleEpoch {
		t.Fatalf("stale epoch: %v (wire code %v)", err, codeOf(stale.Encode()))
	}
	g.wantNames(1, "a", "b")

	// Planted bug: with the fence skipped the same stale frame applies.
	f.plantNoFence = true
	if _, err := f.handleAppend(stale); err != nil || len(g.sms[1].names) != 3 {
		t.Fatalf("oracle blind: an unfenced log still refused the stale frame (%v, %v)", err, g.sms[1].names)
	}
	f.plantNoFence = false

	// A batch whose third op is refused: the first two are applied, acked
	// by LastSeq, and in the on-disk log a restart replays.
	g.sms[1].refuse = "bad"
	batch := proto.RepAppendReq{Epoch: 1, Ops: []proto.RepOp{
		{Seq: 4, Name: "c"}, {Seq: 5, Name: "d"}, {Seq: 6, Name: "bad"}, {Seq: 7, Name: "e"},
	}}
	if resp, err := f.handleAppend(batch); err == nil || resp.LastSeq != 5 {
		t.Fatalf("refused third op: %+v, %v", resp, err)
	}
	g.open(1)
	g.wantNames(1, "a", "b", "stale", "c", "d")
	if got := g.logs[1].seq.Load(); got != 5 {
		t.Fatalf("restart replayed to seq %d, want 5", got)
	}
}

// TestReplogElection: when the primary dies the follower with the
// highest seq wins — the lowest index among equals — and a resurrected
// primary of the old epoch is demoted by the first frame it exchanges
// with the new one, then repaired to the new primary's state.
func TestReplogElection(t *testing.T) {
	for _, tc := range []struct {
		name   string
		behind int // the follower that misses the last op; -1 for a tie
		winner int
	}{{"highest seq", 1, 2}, {"tie to lowest index", -1, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			g := newMemGroup(t, 3)
			g.do(0, "a")
			if tc.behind >= 0 {
				g.down[tc.behind] = true
			}
			g.do(0, "b")
			g.down = []bool{true, false, false} // the primary dies before any repair
			for beat := 0; beat < 3; beat++ {   // FailThreshold is 2
				g.logs[1].tick()
				g.logs[2].tick()
			}
			g.wantPrimary(tc.winner)
			w := g.logs[tc.winner]
			if epoch := w.epoch.Load(); epoch != 2 {
				t.Fatalf("winner leads epoch %d, want 2", epoch)
			}
			w.tick() // a promoted primary resyncs every peer
			g.wantNames(1, "a", "b")
			g.wantNames(2, "a", "b")

			// The old primary returns, still leading epoch 1, and acks a
			// client op nobody else will ever see.
			g.down[0] = false
			g.do(0, "orphan")
			if g.logs[0].isPrimary() {
				t.Fatal("a stale-epoch rejection did not demote the old primary")
			}
			g.logs[0].tick() // forced election: finds the incumbent
			if got := g.logs[0].primaryIdx.Load(); got != int64(tc.winner) || g.logs[0].epoch.Load() != 2 {
				t.Fatalf("old primary follows %d in epoch %d", got, g.logs[0].epoch.Load())
			}
			g.do(tc.winner, "c")
			w.tick()
			for i := range g.logs {
				g.wantNames(i, "a", "b", "c")
			}
		})
	}
}

// TestDemotionMatchesCodeNotText: only a typed stale-epoch rejection
// steps a primary down. Peer error text quotes file names, so a message
// that merely contains the phrase must not.
func TestDemotionMatchesCodeNotText(t *testing.T) {
	g := newMemGroup(t, 2)
	l := g.logs[0]
	lookalike := &proto.RemoteError{Code: proto.CodeGeneric,
		Msg: `replication: create of "` + errStaleEpoch.Error() + `" with id -1`}
	if l.demotedBy(lookalike) || !l.isPrimary() {
		t.Fatal("an error that only quotes the stale-epoch text demoted the primary")
	}
	if !l.demotedBy(&proto.RemoteError{Code: proto.CodeStaleEpoch, Msg: "x"}) || l.isPrimary() {
		t.Fatal("a typed stale-epoch rejection did not demote the primary")
	}
}

package fs

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"eevfs/internal/faultnet"
	"eevfs/internal/proto"
	"eevfs/internal/simtest/leak"
	"eevfs/internal/telemetry"
)

// startGroup boots numServers metadata servers over numNodes storage
// nodes through the harness, on the chaos tests' policy; server 0 boots
// as primary, and tweak, when set, adjusts each server.
func startGroup(t *testing.T, numServers, numNodes int, tweak func(int, *ServerConfig)) *Local {
	t.Helper()
	leak.Check(t)
	return startLocal(t, LocalConfig{Nodes: numNodes, Servers: numServers,
		Node: func(_ int, c *NodeConfig) { c.WriteTimeout = time.Second },
		Server: func(i int, c *ServerConfig) {
			chaosServer(c)
			if tweak != nil {
				tweak(i, c)
			}
		},
	})
}

// TestReplicatedGroupServes: a 3-server group behaves like one server —
// creates, reads, deletes — and followers redirect rather than serve.
func TestReplicatedGroupServes(t *testing.T) {
	g := startGroup(t, 3, 2, nil)

	// Dialing a follower first must work: the redirect points the client
	// at the primary.
	cl, err := DialCluster([]string{g.Addrs[2], g.Addrs[1], g.Addrs[0]}, ClientConfig{
		Transport: chaosTransport(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	content := map[string][]byte{}
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("rep-%d", i)
		data := bytes.Repeat([]byte{byte('a' + i)}, 100+i)
		if err := cl.Create(name, data); err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
		content[name] = data
	}
	for name, want := range content {
		got, _, err := cl.Read(name)
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("read %s: wrong content", name)
		}
	}
	if err := cl.Delete("rep-0"); err != nil {
		t.Fatal(err)
	}
	if err := g.Converged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Followers hold the same namespace but refuse to serve it.
	follower := g.Servers[1]
	if follower.IsPrimary() {
		t.Fatal("server 1 should be a follower")
	}
	if got := len(follower.Files()); got != 5 {
		t.Fatalf("follower has %d files, want 5", got)
	}
	fcl, err := DialConfig(g.Addrs[1], ClientConfig{
		Transport:       chaosTransport(),
		FailoverRetries: -1, // do not follow the redirect: we want the raw rejection
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fcl.Close()
	_, _, err = fcl.Read("rep-1")
	if !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("follower read = %v, want ErrNotPrimary", err)
	}
	if hint := redirectHint(err); hint != g.Addrs[0] {
		t.Fatalf("redirect hint %q, want %q", hint, g.Addrs[0])
	}
}

// TestFailoverPromotesAndServes: kill the primary; a follower promotes,
// re-registers the nodes, and the same client keeps working.
func TestFailoverPromotesAndServes(t *testing.T) {
	g := startGroup(t, 3, 2, nil)
	cl, err := DialCluster(g.Addrs, ClientConfig{Transport: chaosTransport()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Create("before", bytes.Repeat([]byte{'x'}, 256)); err != nil {
		t.Fatal(err)
	}
	g.Servers[0].Close()
	pi, err := g.Primary(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if pi == 0 {
		t.Fatal("dead server still counted as primary")
	}
	// The acked create survived the crash.
	if got, _, err := cl.Read("before"); err != nil || len(got) != 256 {
		t.Fatalf("read across failover: %d bytes, %v", len(got), err)
	}
	// New mutations land on the new primary.
	if err := cl.Create("after", bytes.Repeat([]byte{'y'}, 128)); err != nil {
		t.Fatalf("create after failover: %v", err)
	}
	if err := g.Converged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Node re-registration: the new primary owns a fresh health view.
	deadline := time.Now().Add(5 * time.Second)
	for {
		all := true
		for _, h := range g.Servers[pi].Healthy() {
			all = all && h
		}
		if all {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("new primary never saw all nodes healthy: %v", g.Servers[pi].Healthy())
		}
		time.Sleep(5 * time.Millisecond)
	}
	_, epoch, _ := g.Servers[pi].ReplStatus()
	if epoch < 2 {
		t.Fatalf("promotion did not bump the epoch: %d", epoch)
	}
}

// TestChaosFailoverPipelined: clients pipeline creates and reads while
// the primary dies. Invariants: only typed errors surface, and every
// acked create is readable after the dust settles ("no lost creates").
func TestChaosFailoverPipelined(t *testing.T) {
	g := startGroup(t, 3, 2, nil)

	const workers = 4
	const opsPerWorker = 30
	var (
		mu    sync.Mutex
		acked []string
	)
	errCh := make(chan error, workers*opsPerWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := DialCluster(g.Addrs, ClientConfig{
				Transport:       chaosTransport(),
				FailoverRetries: 20,
				FailoverBackoff: 10 * time.Millisecond,
			})
			if err != nil {
				errCh <- err
				return
			}
			defer cl.Close()
			for i := 0; i < opsPerWorker; i++ {
				name := fmt.Sprintf("w%d-f%d", w, i)
				err := cl.Create(name, bytes.Repeat([]byte{byte('a' + w)}, 64+i))
				if err == nil {
					mu.Lock()
					acked = append(acked, name)
					mu.Unlock()
				} else if !typedTestErr(err) {
					errCh <- fmt.Errorf("create %s failed untyped: %w", name, err)
					return
				}
				if _, _, err := cl.Read(name); err != nil && !typedTestErr(err) {
					errCh <- fmt.Errorf("read %s failed untyped: %w", name, err)
					return
				}
			}
		}(w)
	}
	// Let the workers build up traffic, then kill the primary under them.
	time.Sleep(50 * time.Millisecond)
	g.Servers[0].Close()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	pi, err := g.Primary(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Redirect must eventually land on the new primary and serve.
	cl, err := DialCluster(g.Addrs, ClientConfig{Transport: chaosTransport()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	have := map[string]bool{}
	for _, fi := range g.Servers[pi].Files() {
		have[fi.Name] = true
	}
	mu.Lock()
	defer mu.Unlock()
	for _, name := range acked {
		if !have[name] {
			t.Fatalf("acked create %s lost across failover (%d acked, %d survived)",
				name, len(acked), len(have))
		}
		if _, _, err := cl.Read(name); err != nil {
			t.Fatalf("acked create %s unreadable after failover: %v", name, err)
		}
	}
}

// typedTestErr mirrors the simtest typedError contract: sentinels,
// remote errors, transport errors. Anything else is an invariant
// violation.
func typedTestErr(err error) bool {
	var te *proto.TransportError
	var re *proto.RemoteError
	return errors.Is(err, ErrNodeUnavailable) || errors.Is(err, ErrFileNotFound) ||
		errors.Is(err, ErrNotPrimary) || errors.As(err, &te) || errors.As(err, &re)
}

// TestWriteLookupAndReplicationMetered: every op a server answers is
// metered under its row's name — a write's lookup on the primary, the
// peer frames on the followers, an append and a status probe on one, a
// snapshot repair on the other.
func TestWriteLookupAndReplicationMetered(t *testing.T) {
	regs := []*telemetry.Registry{telemetry.NewRegistry(), telemetry.NewRegistry(), telemetry.NewRegistry()}
	g := startGroup(t, 3, 2, func(i int, c *ServerConfig) {
		c.Health.ProbeInterval = time.Hour // no heartbeat: which follower is repaired how is the test's choice
		c.Metrics = regs[i]
	})
	cl := dialLocal(t, g, ClientConfig{Transport: chaosTransport()})
	if err := cl.Create("f", []byte("old")); err != nil { // an append to both followers
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := cl.Write("f", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	desync(g.Servers[0], 2)
	if err := cl.Create("g", []byte("g")); err != nil { // an append to 1, a snapshot to 2
		t.Fatal(err)
	}
	count := func(i int, name string) int64 { return regs[i].Histogram("server.op."+name+".seconds", nil).Count() }
	if n := count(0, "lookupwrite"); n != 5 {
		t.Errorf("server.op.lookupwrite.seconds counted %d on the primary after 5 writes", n)
	}
	// Member 2's boot probe asked member 1 for its status.
	for _, m := range []struct {
		follower int
		name     string
	}{{1, "repl.append"}, {1, "repl.status"}, {2, "repl.snapshot"}} {
		if count(m.follower, m.name) == 0 {
			t.Errorf("server.op.%s.seconds is empty on follower %d", m.name, m.follower)
		}
	}
}

// snapshotOf takes a server's snapshot under its own replication lock.
func snapshotOf(s *Server) proto.RepSnapshot {
	s.log.mu.Lock()
	defer s.log.mu.Unlock()
	return s.log.snapshotLocked(false)
}

// snapshotBytes is a server's state fingerprint: its snapshot with the
// member identity zeroed, so two different members can be compared
// byte-for-byte.
func snapshotBytes(s *Server) []byte {
	snap := snapshotOf(s)
	snap.From = 0
	return snap.Encode()
}

// manualGroup is a 3-server group whose heartbeat is parked: the test
// calls tick itself, so which follower learns what by epoch op
// and what by snapshot is decided by the test, not by timing.
func manualGroup(t *testing.T) (*Local, *Client) {
	t.Helper()
	g := startGroup(t, 3, 2, func(_ int, cfg *ServerConfig) { cfg.Health.ProbeInterval = time.Hour })
	cl, err := DialCluster(g.Addrs, ClientConfig{Transport: chaosTransport()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return g, cl
}

// desync makes the primary treat a follower as out of sync, as a failed
// append would: its next contact is a snapshot.
func desync(p *Server, peer int) {
	p.log.mu.Lock()
	p.log.peers[peer].synced = false
	p.log.mu.Unlock()
}

// lookups reads every name n times on primary p, without the network.
func lookups(t *testing.T, p *Server, names []string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		for _, name := range names {
			if _, err := p.handleLookup(proto.LookupReq{Name: name}, false, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// epochsAndSnapshots runs three popularity epochs through a real primary
// with follower 1 always in sync — it is built from ops alone — and
// follower 2 pushed out of sync twice, so it is built from snapshots:
// one taken by a commit in the middle of an epoch, one by an epoch's own
// fan-out. plant arms the primary's reship bug.
func epochsAndSnapshots(t *testing.T, plant bool) *Local {
	t.Helper()
	g, cl := manualGroup(t)
	p := g.Servers[0]
	p.log.mu.Lock()
	p.ns.plantReshipEpoch = plant
	p.log.mu.Unlock()
	names := []string{"a", "b", "c", "doomed"}
	for _, name := range names {
		if err := cl.Create(name, bytes.Repeat([]byte{'x'}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	lookups(t, g.Servers[0], names, 5)
	p.tick() // epoch 1: an op to both followers

	desync(g.Servers[0], 2)
	lookups(t, g.Servers[0], names, 7)
	if err := cl.Create("late", []byte("l")); err != nil { // op to 1, snapshot to 2
		t.Fatal(err)
	}
	p.tick() // epoch 2: an op to both followers

	desync(g.Servers[0], 2)
	lookups(t, g.Servers[0], names[:2], 3)
	if err := cl.Delete("doomed"); err != nil { // op to 1, snapshot to 2
		t.Fatal(err)
	}
	desync(g.Servers[0], 2)
	p.tick() // epoch 3: op to 1, snapshot to 2
	return g
}

// TestSnapshotRepairCountsOnce: accesses counted but not yet sequenced
// when a follower is repaired by snapshot reach it once — in the next
// epoch — not once in the snapshot and again in the epoch.
func TestSnapshotRepairCountsOnce(t *testing.T) {
	g := epochsAndSnapshots(t, false)
	want := map[int64]int64{0: 15, 1: 15, 2: 12, 3: 12}
	for i, s := range g.Servers {
		snap, err := proto.DecodeRepSnapshot(snapshotBytes(s))
		if err != nil {
			t.Fatal(err)
		}
		got := map[int64]int64{}
		for _, r := range snap.Accesses {
			got[r.FileID] = r.Count
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("server %d replicated counts %v, want %v", i, got, want)
		}
		if live, _ := s.ns.popularity(); !reflect.DeepEqual(live, []int{15, 15, 12, 12, 0}) {
			t.Errorf("server %d ranks from counts %v", i, live)
		}
	}
}

// TestOpLogReplayDeterminism: the snapshot at seq N is the fold of ops
// 1..N, byte for byte — behind a real primary and for two followers fed
// the same op log by hand; duplicates ack idempotently; gaps are loud.
func TestOpLogReplayDeterminism(t *testing.T) {
	// Planted bug: an epoch that is shipped but not recorded as shipped
	// goes out again, and only the op-fed follower counts it twice. (A
	// subtest, so the planted group is gone before the real one starts.)
	t.Run("planted reship", func(t *testing.T) {
		g := epochsAndSnapshots(t, true)
		if bytes.Equal(snapshotBytes(g.Servers[1]), snapshotBytes(g.Servers[2])) {
			t.Fatal("oracle blind: a reshipped epoch left both followers byte-identical")
		}
	})
	g := epochsAndSnapshots(t, false)
	want := snapshotBytes(g.Servers[0])
	if !bytes.Equal(want, snapshotBytes(g.Servers[1])) {
		t.Fatal("follower built from ops differs from the primary's snapshot")
	}
	if !bytes.Equal(want, snapshotBytes(g.Servers[2])) {
		t.Fatal("follower built from snapshots differs from the primary's snapshot")
	}

	// Hand-fed from here on; the group's primary is not used again.
	f1, f2 := g.Servers[1], g.Servers[2]
	base := f1.log.seq.Load()
	ops := []proto.RepOp{
		{Kind: proto.RepOpCreate, Name: "x", ID: 10, Size: 100, Node: 0, Cursor: 9},
		{Kind: proto.RepOpCreate, Name: "y", ID: 2000, Size: 200, Node: 1, Cursor: 10}, // a new chunk
		{Kind: proto.RepOpAccess, Records: []proto.RepAccess{
			{FileID: 10, Count: 2, First: 5, Last: 6}, {FileID: 2000, Count: 1, First: 2, Last: 2},
		}},
		{Kind: proto.RepOpReplica, Name: "x", Replica: 2},
		{Kind: proto.RepOpAccess, Records: []proto.RepAccess{ // earlier times arriving later
			{FileID: 10, Count: 3, First: 1, Last: 4}, {FileID: 2000, Count: 1, First: 3, Last: 3},
		}},
		{Kind: proto.RepOpDelete, Name: "y"}, // its fold stays
	}
	for i := range ops {
		ops[i].Seq = base + uint64(i) + 1
	}
	last := ops[len(ops)-1].Seq
	req := proto.RepAppendReq{Epoch: 1, From: 0, Ops: ops}
	for _, f := range []*Server{f1, f2} {
		resp, err := f.log.handleAppend(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.LastSeq != last {
			t.Fatalf("LastSeq %d, want %d", resp.LastSeq, last)
		}
	}
	if !reflect.DeepEqual(f1.Files(), f2.Files()) {
		t.Fatalf("replica states diverge:\n%v\nvs\n%v", f1.Files(), f2.Files())
	}
	before := snapshotBytes(f1)
	if !bytes.Equal(before, snapshotBytes(f2)) {
		t.Fatal("same op log produced different snapshot bytes")
	}
	if count, first, last := f1.ns.pop.slot(10).live(); count != 5 || first != 1 || last != 6 {
		t.Fatalf("two epochs folded to (%d, %g, %g), want (5, 1, 6)", count, first, last)
	}
	// Installing a server's own snapshot is the identity.
	if err := f2.log.handleSnapshot(snapshotOf(f1)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, snapshotBytes(f2)) {
		t.Fatal("a follower installed from a snapshot differs from the follower it was taken from")
	}

	// Duplicate delivery: idempotent ack, state unchanged.
	resp, err := f1.log.handleAppend(req)
	if err != nil || resp.LastSeq != last {
		t.Fatalf("duplicate delivery: %+v, %v", resp, err)
	}
	if !bytes.Equal(before, snapshotBytes(f1)) {
		t.Fatal("duplicate delivery mutated state")
	}

	// Gap: rejected with the gap marker, nothing applied.
	gap := proto.RepAppendReq{Epoch: 1, From: 0, Ops: []proto.RepOp{
		{Seq: last + 3, Kind: proto.RepOpCreate, Name: "z", ID: 8, Size: 1, Node: 0},
	}}
	if _, err := f1.log.handleAppend(gap); err == nil || !errors.Is(err, errLogGap) {
		t.Fatalf("gap delivery: %v, want %q", err, errLogGap)
	}
	if _, ok := f1.ns.meta.LookupName("z"); ok {
		t.Fatal("gapped op was applied")
	}

	// Stale epoch: fenced.
	stale := proto.RepAppendReq{Epoch: 0, From: 0, Ops: nil}
	if _, err := f1.log.handleAppend(stale); err == nil || !errors.Is(err, errStaleEpoch) {
		t.Fatalf("stale epoch: %v, want %q", err, errStaleEpoch)
	}
}

// TestSnapshotSizeIndependentOfLookups: a snapshot is O(files). Its
// encoding has the same length after a thousand and after two hundred
// thousand lookups of one namespace, and a follower that falls out of
// sync after all of them is whole again one tick later.
func TestSnapshotSizeIndependentOfLookups(t *testing.T) {
	g, cl := manualGroup(t)
	p := g.Servers[0]
	var names []string
	for i := 0; i < 50; i++ {
		names = append(names, fmt.Sprintf("n%02d", i))
		if err := cl.Create(names[i], []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	lookups(t, g.Servers[0], names, 20)
	p.tick()
	small := len(snapshotBytes(p))
	lookups(t, g.Servers[0], names, 4000)
	p.tick()
	if big := len(snapshotBytes(p)); big != small {
		t.Fatalf("snapshot grew from %d to %d bytes with the lookup count", small, big)
	}
	desync(g.Servers[0], 1)
	p.tick()
	p.log.mu.Lock()
	synced := p.log.peers[1].synced
	p.log.mu.Unlock()
	if !synced {
		t.Fatal("out-of-sync follower not repaired by one tick")
	}
	if !bytes.Equal(snapshotBytes(p), snapshotBytes(g.Servers[1])) {
		t.Fatal("repaired follower differs from the primary")
	}
	if got := g.Servers[1].AccessCount(); got != 50*4020 {
		t.Fatalf("repaired follower counts %d accesses, want %d", got, 50*4020)
	}
}

// TestReplicaFallbackRead: a mirrored file stays readable while its
// owner is down, and a write invalidates the mirror so no stale bytes
// can ever be served.
func TestReplicaFallbackRead(t *testing.T) {
	leak.Check(t)
	serverNet := faultnet.New(1)
	clientNet := faultnet.New(2)
	l := startLocal(t, LocalConfig{Nodes: 2, Servers: 1,
		Node: func(_ int, c *NodeConfig) { c.WriteTimeout = time.Second },
		Server: func(_ int, c *ServerConfig) {
			chaosServer(c)
			c.Dialer, c.MirrorPrefetch = serverNet, true
		},
	})
	srv := l.Servers[0]
	cl := dialLocal(t, l, ClientConfig{Dialer: clientNet, Transport: chaosTransport()})

	data := bytes.Repeat([]byte{'m'}, 2048)
	if err := cl.Create("hot", data); err != nil {
		t.Fatal(err)
	}
	// Journal some popularity, then prefetch: the mirror rides along.
	for i := 0; i < 3; i++ {
		if _, _, err := cl.Read("hot"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Prefetch(1); err != nil {
		t.Fatal(err)
	}
	fi, ok := srv.ns.meta.LookupName("hot")
	if !ok {
		t.Fatal("hot vanished")
	}
	ridx, has := fi.ReplicaNode()
	if !has {
		t.Fatal("prefetch did not mirror the file")
	}
	if ridx == fi.Node {
		t.Fatal("mirror landed on the owner")
	}

	// Partition the owner; the read must be served from the mirror.
	ownerAddr := srv.cfg.NodeAddrs[fi.Node]
	serverNet.Partition(ownerAddr)
	clientNet.Partition(ownerAddr)
	waitHealthy(t, srv, fi.Node, false)
	got, _, err := cl.Read("hot")
	if err != nil {
		t.Fatalf("read with owner down: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("mirror served wrong bytes")
	}
	// Writes never go to the mirror: with the owner down they fail typed.
	if _, err := cl.Write("hot", bytes.Repeat([]byte{'n'}, 64)); !errors.Is(err, ErrNodeUnavailable) {
		t.Fatalf("write with owner down = %v, want ErrNodeUnavailable", err)
	}

	// Heal, overwrite (write-intent lookup drops the mirror), re-kill the
	// owner: the stale copy must NOT be served.
	serverNet.Heal(ownerAddr)
	clientNet.Heal(ownerAddr)
	waitHealthy(t, srv, fi.Node, true)
	if _, err := cl.Write("hot", bytes.Repeat([]byte{'n'}, 64)); err != nil {
		t.Fatalf("write after heal: %v", err)
	}
	if fi, _ := srv.ns.meta.LookupName("hot"); fi.Replica != 0 {
		t.Fatalf("write did not invalidate the mirror marker: %d", fi.Replica)
	}
	serverNet.Partition(ownerAddr)
	clientNet.Partition(ownerAddr)
	waitHealthy(t, srv, fi.Node, false)
	if _, _, err := cl.Read("hot"); !errors.Is(err, ErrNodeUnavailable) {
		t.Fatalf("read after invalidation = %v, want ErrNodeUnavailable (stale mirror must not serve)", err)
	}
}

// TestChaosSilentReplicationLoss: with the convergence-bug injection
// armed, an acked create after the silence point must vanish on
// failover — proving the oracle in the simtest battery detects real
// divergence, not a vacuous truth.
func TestChaosSilentReplicationLoss(t *testing.T) {
	g := startGroup(t, 2, 1, func(i int, cfg *ServerConfig) {
		if i == 0 {
			cfg.ReplChaosSilentAfter = 1
		}
	})
	cl, err := DialCluster(g.Addrs, ClientConfig{Transport: chaosTransport()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Create("replicated", bytes.Repeat([]byte{'r'}, 64)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Create("silent", bytes.Repeat([]byte{'s'}, 64)); err != nil {
		t.Fatal(err)
	}
	g.Servers[0].Close()
	pi, err := g.Primary(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, fi := range g.Servers[pi].Files() {
		names[fi.Name] = true
	}
	if !names["replicated"] {
		t.Fatal("pre-silence create lost")
	}
	if names["silent"] {
		t.Fatal("injection had no effect: post-silence create replicated anyway")
	}
}

// TestFollowerRefusesOutOfRangeNode: a create that places a file on a
// node this server does not have is refused wherever it comes from — an
// append, then the snapshot the primary falls back to — so no record can
// ever index past the node set: a later lookup of the name is a typed
// miss, not a panic.
func TestFollowerRefusesOutOfRangeNode(t *testing.T) {
	g, _ := manualGroup(t) // 2 nodes
	f := g.Servers[1]
	ghost := proto.RepOp{Seq: f.log.seq.Load() + 1, Kind: proto.RepOpCreate, Name: "ghost", ID: 0, Size: 1, Node: 2}
	if _, err := f.log.handleAppend(proto.RepAppendReq{Epoch: 1, From: 0, Ops: []proto.RepOp{ghost}}); err == nil {
		t.Fatal("an append placing a file on node 2 of 2 was accepted")
	}
	snap := snapshotOf(g.Servers[0])
	snap.Files = append(snap.Files, proto.RepFile{Name: "ghost", ID: 0, Size: 1, Node: 2})
	snap.NextID = 1
	if err := f.log.handleSnapshot(snap); err == nil {
		t.Fatal("a snapshot placing a file on node 2 of 2 was accepted")
	}
	if _, err := f.handleLookup(proto.LookupReq{Name: "ghost"}, false, nil); !errors.Is(err, ErrFileNotFound) {
		t.Fatalf("lookup of the refused file: %v, want %v", err, ErrFileNotFound)
	}
}

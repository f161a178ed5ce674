package fs

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"eevfs/internal/proto"
	"eevfs/internal/telemetry"
)

// countedReads has two clients read four files, each through its own
// location cache, and returns what the server counted per file against
// what was read. The first client created the files, so it never looks
// one up; the second looks each up once. plant drops the first client's
// first report.
func countedReads(t *testing.T, plant bool) (counted, read map[string]int64) {
	t.Helper()
	l := startLocal(t, LocalConfig{Nodes: 2, Servers: 1})
	srv := l.Servers[0]
	a, b := dialLocal(t, l, ClientConfig{}), dialLocal(t, l, ClientConfig{})
	a.rep.plantDrop = plant
	names := []string{"c0", "c1", "c2", "c3"}
	for _, name := range names {
		if err := a.Create(name, []byte("counted "+name)); err != nil {
			t.Fatal(err)
		}
	}
	read = map[string]int64{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for ci, cl := range []*Client{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				name := names[(i*(ci+1)+i/7)%len(names)]
				if _, _, err := cl.Read(name); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				read[name]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	a.Close()
	b.Close()
	counted = map[string]int64{}
	for _, name := range names {
		fi, _ := srv.ns.meta.LookupName(name)
		counted[name] = srv.ns.pop.slot(int64(fi.ID)).count.Load()
	}
	return counted, read
}

// TestCachedReadsCountedOnce: popularity is conserved across the location
// cache — every read is counted by its lookup or by one report, so once
// both clients have closed, each file's count is the reads issued. A
// client that drops one report must fail the same check.
func TestCachedReadsCountedOnce(t *testing.T) {
	counted, read := countedReads(t, false)
	for name, n := range read {
		if counted[name] != n {
			t.Errorf("%s: server counted %d accesses, clients read it %d times", name, counted[name], n)
		}
	}
	counted, read = countedReads(t, true)
	lost := false
	for name, n := range read {
		lost = lost || counted[name] != n
	}
	if !lost {
		t.Fatal("a dropped report went unnoticed")
	}
}

// TestCachedReadCostsNoLookups pins the location cache's cost at the
// server, from its op metrics: reads of names the client created cost no
// lookup, and their reports at most one round trip per reportBatch reads,
// plus one per reportDelay elapsed (a report also leaves when its oldest
// read has waited that long), plus the report Close sends.
func TestCachedReadCostsNoLookups(t *testing.T) {
	reg := telemetry.NewRegistry()
	l := startLocal(t, LocalConfig{Nodes: 2, Servers: 1, Server: func(_ int, c *ServerConfig) { c.Metrics = reg }})
	cl := dialLocal(t, l, ClientConfig{})
	const files, reads, readers = 10, 1000, 8
	for f := 0; f < files; f++ {
		if err := cl.Create(fmt.Sprintf("k%d", f), []byte("known")); err != nil {
			t.Fatal(err)
		}
	}
	lookups, reports := reg.Histogram("server.op.lookup.seconds", nil), reg.Histogram("server.op.access.seconds", nil)
	lookups0, reports0 := lookups.Count(), reports.Count()

	start := time.Now()
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := r; i < reads; i += readers {
				if _, _, err := cl.Read(fmt.Sprintf("k%d", i%files)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	cl.Close()

	if n := lookups.Count() - lookups0; n != 0 {
		t.Errorf("%d reads of located names cost %d lookups, want 0", reads, n)
	}
	bound := int64((reads+reportBatch-1)/reportBatch) + int64(elapsed/reportDelay) + 1
	n := reports.Count() - reports0
	t.Logf("%d reads in %v: %d lookups, %d reports (bound %d)", reads, elapsed, lookups.Count()-lookups0, n, bound)
	if n > bound || n < 1 {
		t.Errorf("%d reads sent %d reports, want 1..%d", reads, n, bound)
	}
	if got := l.Servers[0].AccessCount(); got != reads {
		t.Errorf("server counted %d accesses, want %d", got, reads)
	}
}

// TestStaleLocationRecreated: another client deletes a name this client
// has cached and creates it again under a new id — on another node, then
// on the same one. The cached read falls back and returns the new bytes.
func TestStaleLocationRecreated(t *testing.T) {
	l := startLocal(t, LocalConfig{Nodes: 2, Servers: 1})
	a, b := dialLocal(t, l, ClientConfig{}), dialLocal(t, l, ClientConfig{})
	cur := []byte("old bytes")
	if err := a.Create("f", cur); err != nil {
		t.Fatal(err)
	}
	for round, filler := range []bool{false, true} {
		before, ok := a.cached("f")
		if got, _, err := a.Read("f"); !ok || err != nil || !bytes.Equal(got, cur) {
			t.Fatalf("round %d: cached %v, read %q, %v; want %q", round, ok, got, err, cur)
		}
		if err := b.Delete("f"); err != nil {
			t.Fatal(err)
		}
		if filler { // the round-robin cursor comes back to the old node
			if err := b.Create(fmt.Sprintf("filler%d", round), []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		want := []byte(fmt.Sprintf("new bytes, round %d", round))
		if err := b.Create("f", want); err != nil {
			t.Fatal(err)
		}
		fi, _ := l.Servers[0].ns.meta.LookupName("f")
		if sameNode := l.Servers[0].cfg.NodeAddrs[fi.Node] == before.node; sameNode != filler {
			t.Fatalf("round %d: recreated on the old node %v, want %v", round, sameNode, filler)
		}
		got, _, err := a.Read("f")
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("round %d: read after recreate = %q, %v; want %q", round, got, err, want)
		}
		if now, ok := a.cached("f"); !ok || now.id != int64(fi.ID) {
			t.Fatalf("round %d: cache holds %+v after the fallback, want id %d", round, now, fi.ID)
		}
		cur = want
	}
}

// mirrored boots one server with mirror prefetching over two nodes and
// a file "hot" mirrored onto the node that does not own it; plant makes
// every lookup answer cacheable.
func mirrored(t *testing.T, reg *telemetry.Registry, plant bool) (l *Local, cl *Client, owner, mirror int, data []byte) {
	t.Helper()
	l = startLocal(t, LocalConfig{Nodes: 2, Servers: 1,
		Node: func(_ int, c *NodeConfig) { c.WriteTimeout = time.Second },
		Server: func(_ int, c *ServerConfig) {
			chaosServer(c)
			c.MirrorPrefetch, c.Metrics = true, reg
		},
	})
	srv := l.Servers[0]
	srv.plantCacheAll = plant
	cl = dialLocal(t, l, ClientConfig{Transport: chaosTransport()})
	data = bytes.Repeat([]byte{'m'}, 2048)
	if err := cl.Create("hot", data); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Read("hot"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Prefetch(1); err != nil {
		t.Fatal(err)
	}
	fi, _ := srv.ns.meta.LookupName("hot")
	mirror, has := fi.ReplicaNode()
	if !has || mirror == fi.Node {
		t.Fatalf("hot is on node %d with replica marker %d: no mirror elsewhere", fi.Node, fi.Replica)
	}
	return l, cl, fi.Node, mirror, data
}

// staleMirrorBound is how long a cached read may take to fall back from
// a stopped owner to the mirror: the refused attempt and its one retry,
// each well inside chaosTransport's 250 ms dial timeout, then a lookup
// and a read on loopback.
const staleMirrorBound = 500 * time.Millisecond

// TestStaleLocationOwnerDown: the owner of a cached file stops while a
// mirror copy exists. The cached read fails at the owner, falls back once
// — one lookup — and is served from the mirror within staleMirrorBound.
func TestStaleLocationOwnerDown(t *testing.T) {
	reg := telemetry.NewRegistry()
	l, cl, owner, _, data := mirrored(t, reg, false)
	if _, ok := cl.cached("hot"); !ok {
		t.Fatal("the creator does not know where hot lives")
	}
	l.Nodes[owner].Close()
	waitHealthy(t, l.Servers[0], owner, false)

	lookups := reg.Histogram("server.op.lookup.seconds", nil)
	lookups0 := lookups.Count()
	start := time.Now()
	got, _, err := cl.Read("hot")
	took := time.Since(start)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read with the owner down = %d bytes, %v", len(got), err)
	}
	if n := lookups.Count() - lookups0; n != 1 {
		t.Fatalf("the fallback cost %d lookups, want 1", n)
	}
	if took > staleMirrorBound {
		t.Fatalf("the fallback took %v, want at most %v", took, staleMirrorBound)
	}
	if _, ok := cl.cached("hot"); ok {
		t.Fatal("the mirror's answer was cached")
	}
}

// mirrorServesStale runs the mirror-answer scenario and returns what a
// reader reads once the owner is back and written: a reader served by
// the mirror while the owner was down, with the mirror still holding the
// old copy (as a dropMirror that failed would leave it). plant makes
// every lookup answer cacheable.
func mirrorServesStale(t *testing.T, plant bool) (got, want []byte) {
	t.Helper()
	l, writer, owner, mirror, old := mirrored(t, nil, plant)
	srv := l.Servers[0]
	fi, _ := srv.ns.meta.LookupName("hot")
	l.Nodes[owner].Close()
	waitHealthy(t, srv, owner, false)
	reader := dialLocal(t, l, ClientConfig{Transport: chaosTransport()})
	if got, _, err := reader.Read("hot"); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("read from the mirror = %d bytes, %v", len(got), err)
	}

	if err := l.RestartNode(owner); err != nil {
		t.Fatal(err)
	}
	waitHealthy(t, srv, owner, true)
	want = bytes.Repeat([]byte{'n'}, 64)
	if _, err := writer.Write("hot", want); err != nil {
		t.Fatal(err)
	}
	// The write dropped the mirror; wait for the copy to go, then put the
	// old one back.
	ep := proto.NewEndpoint(srv.cfg.NodeAddrs[mirror], nil, chaosTransport())
	defer ep.Close()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		_, _, err := ep.Call(proto.TNodeReadReq, proto.NodeReadReq{FileID: int64(fi.ID)}.Encode())
		if errors.Is(mapRemote(err), ErrFileNotFound) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the mirror copy was never dropped: %v", err)
		}
	}
	for _, call := range []struct {
		t    proto.Type
		body []byte
	}{
		{proto.TNodeCreateReq, proto.NodeCreateReq{FileID: int64(fi.ID), Size: int64(len(old))}.Encode()},
		{proto.TNodeWriteReq, proto.NodeWriteReq{FileID: int64(fi.ID), Data: old}.Encode()},
	} {
		if _, _, err := ep.Call(call.t, call.body); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := reader.Read("hot")
	if err != nil {
		t.Fatal(err)
	}
	return got, want
}

// TestStaleLocationMirrorNotCached: a mirror's answer is never cached, so
// once the owner is back and written a reader gets the new bytes though
// the mirror still holds the old ones. With every answer cacheable the
// reader would get the old bytes, and must.
func TestStaleLocationMirrorNotCached(t *testing.T) {
	if got, want := mirrorServesStale(t, false); !bytes.Equal(got, want) {
		t.Fatalf("reader got %q, want the new bytes %q", got, want)
	}
	if got, want := mirrorServesStale(t, true); bytes.Equal(got, want) {
		t.Fatal("with mirror answers cached the reader still got the new bytes: the check proves nothing")
	}
}

// ghostRead kills a group's primary between a create's claim and its
// commit while a client looks the name up, has the new primary give the
// same id on the same node to another name, and returns what the client
// then reads under the first name. plant makes every lookup answer
// cacheable.
func ghostRead(t *testing.T, plant bool) (got []byte, err error) {
	t.Helper()
	g := startGroup(t, 3, 2, nil)
	cl := dialLocal(t, g, ClientConfig{Transport: chaosTransport()})
	p := g.Servers[0]
	p.plantCacheAll = plant
	claimed, release := make(chan proto.RepOp), make(chan struct{})
	p.afterClaim = func(op proto.RepOp) {
		if op.Kind == proto.RepOpCreate && op.Name == "ghost" {
			claimed <- op
			<-release
			runtime.Goexit() // the primary stops here: the create is never committed
		}
	}
	go p.handleCreate(proto.CreateReq{Name: "ghost", Size: 64}, nil)
	ghost := <-claimed
	cl.Read("ghost") // visible, claimed on its node, unwritten: any answer will do
	if _, ok := cl.cached("ghost"); ok != plant {
		t.Fatalf("uncommitted create cached: %v, want %v", ok, plant)
	}
	close(release)
	p.Close()
	pi, perr := g.Primary(10 * time.Second)
	if perr != nil {
		t.Fatal(perr)
	}

	other := bytes.Repeat([]byte{'o'}, 64)
	if err := cl.Create("other", other); err != nil {
		t.Fatal(err)
	}
	if fi, _ := g.Servers[pi].ns.meta.LookupName("other"); int64(fi.ID) != ghost.ID || int64(fi.Node) != ghost.Node {
		t.Fatalf("other got id %d on node %d, ghost had %d on %d: the id was not re-issued", fi.ID, fi.Node, ghost.ID, ghost.Node)
	}
	got, _, err = cl.Read("ghost")
	return got, err
}

// TestStaleLocationUncommittedCreate: an answer about a create that has
// not committed is not cacheable — a new primary re-issues its id — so a
// client that looked the name up then reads it as missing, not as the
// file that now holds the id. With the answer cached it reads the other
// file's bytes, and must.
func TestStaleLocationUncommittedCreate(t *testing.T) {
	// Each group in a subtest of its own: its leak check must run once it
	// has stopped, not while another group runs.
	t.Run("uncacheable", func(t *testing.T) {
		if got, err := ghostRead(t, false); !errors.Is(err, ErrFileNotFound) {
			t.Fatalf("read of the lost create = %q, %v; want ErrFileNotFound", got, err)
		}
	})
	t.Run("planted", func(t *testing.T) {
		if got, err := ghostRead(t, true); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{'o'}, 64)) {
			t.Fatalf("with the uncommitted answer cached, read = %q, %v; the check proves nothing", got, err)
		}
	})
}

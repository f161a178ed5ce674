package fs

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"eevfs/internal/faultnet"
	"eevfs/internal/proto"
	"eevfs/internal/simtest/leak"
)

// chaosTransport is the deliberately aggressive timeout/retry policy the
// chaos tests run under: every failure mode must resolve in well under a
// second so the bounded-time assertions are meaningful.
func chaosTransport() proto.TransportConfig {
	return proto.TransportConfig{
		DialTimeout: 250 * time.Millisecond,
		RTTimeout:   250 * time.Millisecond,
		Retries:     1,
		RetryBase:   5 * time.Millisecond,
		RetryMax:    10 * time.Millisecond,
		Seed:        7,
	}
}

// chaosCluster builds a cluster whose server->node path runs over one
// fault-injecting network and whose client->server/node path runs over a
// second, independent one — so scripted fault budgets on one path (e.g.
// "refuse the next dial") cannot be consumed by the other, keeping the
// chaos scripts deterministic.
func chaosCluster(t *testing.T, numNodes int) (cl *Client, srv *Server, nodes []*Node, serverNet, clientNet *faultnet.Network) {
	t.Helper()
	// Every chaos test spawns server probe loops and node accept
	// goroutines; the Close paths must join them all, even after forced
	// failures. Registered first so it runs after the other cleanups.
	leak.Check(t)
	serverNet = faultnet.New(1)
	clientNet = faultnet.New(2)
	l := startLocal(t, LocalConfig{Nodes: numNodes, Servers: 1,
		Node: func(_ int, c *NodeConfig) { c.InjectLatency, c.WriteTimeout = true, time.Second },
		Server: func(_ int, c *ServerConfig) {
			chaosServer(c)
			c.Dialer = serverNet
		},
	})
	cl = dialLocal(t, l, ClientConfig{Dialer: clientNet, Transport: chaosTransport()})
	return cl, l.Servers[0], l.Nodes, serverNet, clientNet
}

// waitHealthy polls the server's health view until node idx reaches the
// wanted state.
func waitHealthy(t *testing.T, srv *Server, idx int, want bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if srv.Healthy()[idx] == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("node %d never became healthy=%v", idx, want)
}

// TestChaosPartitionBoundedTypedError is the acceptance scenario: with
// one node partitioned, requests touching it fail within the configured
// deadlines with typed errors (never a hang), the server degrades
// placement to the healthy node, and healing the partition restores full
// service.
func TestChaosPartitionBoundedTypedError(t *testing.T) {
	cl, srv, nodes, serverNet, clientNet := chaosCluster(t, 2)
	if err := cl.Create("f0", bytes.Repeat([]byte("a"), 2000)); err != nil { // node 0
		t.Fatal(err)
	}
	if err := cl.Create("f1", bytes.Repeat([]byte("b"), 2000)); err != nil { // node 1
		t.Fatal(err)
	}

	// Partition node 0 on both paths: the server's probes and the
	// client's direct data connections all black-hole.
	victim := nodes[0].Addr()
	serverNet.Partition(victim)
	clientNet.Partition(victim)

	// A read racing ahead of failure detection must come back quickly
	// with a transport-typed error, not hang on the dead socket. Bound:
	// 2 attempts x 250ms RTTimeout + backoff + lookup, with margin.
	start := time.Now()
	_, _, err := cl.Read("f0")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("read through a partition succeeded")
	}
	var te *proto.TransportError
	if !errors.Is(err, ErrNodeUnavailable) && !errors.As(err, &te) {
		t.Fatalf("partition read error = %v, want typed transport or unavailable error", err)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("partition read took %v, want bounded by deadlines (~500ms)", elapsed)
	}

	// The prober marks the node unhealthy; from then on lookups fail
	// fast with the typed unavailable sentinel instead of timing out.
	waitHealthy(t, srv, 0, false)
	start = time.Now()
	_, _, err = cl.Read("f0")
	if !errors.Is(err, ErrNodeUnavailable) {
		t.Fatalf("degraded lookup error = %v, want ErrNodeUnavailable", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("degraded lookup took %v, want fast server-side rejection", elapsed)
	}
	if err := cl.Delete("f0"); !errors.Is(err, ErrNodeUnavailable) {
		t.Fatalf("degraded delete error = %v, want ErrNodeUnavailable", err)
	}

	// Degraded placement: every new file lands on the healthy node.
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("g%d", i)
		if err := cl.Create(name, []byte("degraded")); err != nil {
			t.Fatalf("create %s during partition: %v", name, err)
		}
		fi, ok := srv.ns.meta.LookupName(name)
		if !ok {
			t.Fatalf("%s missing from metadata", name)
		}
		if fi.Node != 1 {
			t.Fatalf("%s placed on partitioned node %d", name, fi.Node)
		}
	}

	// Degraded stats: the partitioned node is skipped, not fatal.
	stats, err := cl.Stats()
	if err != nil {
		t.Fatalf("stats during partition: %v", err)
	}
	for _, d := range stats.Disks {
		if strings.HasPrefix(d.Name, "node0/") {
			t.Fatalf("stats include partitioned node: %s", d.Name)
		}
	}

	// The healthy node keeps serving reads throughout.
	if _, _, err := cl.Read("f1"); err != nil {
		t.Fatalf("healthy node read during partition: %v", err)
	}

	// Heal: the prober readmits the node and its files come back.
	serverNet.Heal(victim)
	clientNet.Heal(victim)
	waitHealthy(t, srv, 0, true)
	got, _, err := cl.Read("f0")
	if err != nil {
		t.Fatalf("read after heal: %v", err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte("a"), 2000)) {
		t.Fatal("content corrupted across partition/heal")
	}
}

// TestChaosTransientDialRefusalRetried: one refused dial is absorbed by
// the retry policy — the caller never sees it.
func TestChaosTransientDialRefusalRetried(t *testing.T) {
	cl, srv, nodes, _, clientNet := chaosCluster(t, 1)
	if err := cl.Create("f", bytes.Repeat([]byte("x"), 500)); err != nil {
		t.Fatal(err)
	}

	// A fresh client holds no node connection yet; its first data dial
	// gets refused once and must transparently retry.
	cl2, err := DialConfig(srv.Addr(), ClientConfig{Dialer: clientNet, Transport: chaosTransport()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	clientNet.SetFault(nodes[0].Addr(), faultnet.Fault{RefuseDials: 1})
	if _, _, err := cl2.Read("f"); err != nil {
		t.Fatalf("read with one refused dial: %v", err)
	}

	// With the live connection killed and every redial refused, the
	// retry budget exhausts and the error surfaces typed.
	clientNet.SetFault(nodes[0].Addr(), faultnet.Fault{DropAfterBytes: 1, RefuseDials: -1})
	_, _, err = cl2.Read("f")
	var te *proto.TransportError
	if !errors.As(err, &te) {
		t.Fatalf("exhausted retries error = %v, want *proto.TransportError", err)
	}
	clientNet.Heal(nodes[0].Addr())
}

// TestChaosMidStreamDropRetried: a connection that dies mid-response is
// discarded and the retry completes the read on a fresh connection.
func TestChaosMidStreamDropRetried(t *testing.T) {
	cl, srv, nodes, _, clientNet := chaosCluster(t, 1)
	content := bytes.Repeat([]byte("z"), 4000)
	if err := cl.Create("f", content); err != nil {
		t.Fatal(err)
	}

	// Script: the next connection dialed to the node dies after 512
	// bytes — mid-way through the 4000-byte response. The connection
	// after it is clean.
	clientNet.SetFault(nodes[0].Addr(), faultnet.Fault{DropAfterBytes: 512, DropConns: 1})
	cl2, err := DialConfig(srv.Addr(), ClientConfig{Dialer: clientNet, Transport: chaosTransport()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	got, _, err := cl2.Read("f")
	if err != nil {
		t.Fatalf("read across mid-stream drop: %v", err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("retried read returned wrong content")
	}
}

// TestChaosCorruptionPoisonsAllOutstanding: with many calls pipelined on
// the client's one server connection, a mid-stream corruption poisons the
// whole connection — every outstanding request must fail with a typed
// *proto.TransportError (no hangs, no silent wrong answers at the
// transport layer), and once the fault heals the next call must redial a
// fresh connection and succeed.
func TestChaosCorruptionPoisonsAllOutstanding(t *testing.T) {
	_, srv, _, _, clientNet := chaosCluster(t, 1)

	// Single-attempt transport: retries would mask the poison we want to
	// observe.
	cfg := chaosTransport()
	cfg.Retries = -1
	cl2, err := DialConfig(srv.Addr(), ClientConfig{Dialer: clientNet, Transport: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()

	// Prime the shared connection so every goroutine below pipelines on
	// the same socket rather than racing the first dial.
	if _, err := cl2.List(); err != nil {
		t.Fatal(err)
	}

	// Corrupt a byte every 7 transferred: frame headers are guaranteed
	// casualties, so the stream desyncs rather than merely smudging a
	// payload.
	clientNet.SetFault(srv.Addr(), faultnet.Fault{CorruptEvery: 7})

	const outstanding = 6
	var wg sync.WaitGroup
	errs := make(chan error, outstanding)
	for i := 0; i < outstanding; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := cl2.List()
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err == nil {
			t.Fatal("call over a corrupted stream reported success")
		}
		var te *proto.TransportError
		if !errors.As(err, &te) {
			t.Fatalf("corrupted-stream error = %v, want *proto.TransportError", err)
		}
	}

	// Heal: the poisoned connection was discarded, so the next call can
	// only succeed by redialing.
	clientNet.Heal(srv.Addr())
	if _, err := cl2.List(); err != nil {
		t.Fatalf("call after heal must redial and succeed, got %v", err)
	}
}

// TestChaosNodeRestartRecovery: a crashed node is detected, its files
// report unavailable, and after a restart on the same address the prober
// readmits it with content intact.
func TestChaosNodeRestartRecovery(t *testing.T) {
	cl, srv, nodes, _, _ := chaosCluster(t, 2)
	content := bytes.Repeat([]byte("r"), 1500)
	if err := cl.Create("f0", content); err != nil { // node 0
		t.Fatal(err)
	}

	cfg := nodes[0].cfg
	cfg.Addr = nodes[0].Addr()
	nodes[0].Close() // crash

	waitHealthy(t, srv, 0, false)
	if _, _, err := cl.Read("f0"); !errors.Is(err, ErrNodeUnavailable) {
		t.Fatalf("read from crashed node = %v, want ErrNodeUnavailable", err)
	}

	restarted, err := StartNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { restarted.Close() })

	waitHealthy(t, srv, 0, true)
	got, _, err := cl.Read("f0")
	if err != nil {
		t.Fatalf("read after node restart: %v", err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("content lost across node restart")
	}
}

// TestChaosAllNodesDown: with every node unhealthy, creates fail fast
// with the unavailable sentinel instead of hanging.
func TestChaosAllNodesDown(t *testing.T) {
	cl, srv, nodes, serverNet, clientNet := chaosCluster(t, 2)
	for _, n := range nodes {
		serverNet.Partition(n.Addr())
		clientNet.Partition(n.Addr())
	}
	waitHealthy(t, srv, 0, false)
	waitHealthy(t, srv, 1, false)

	start := time.Now()
	err := cl.Create("doomed", []byte("x"))
	if !errors.Is(err, ErrNodeUnavailable) {
		t.Fatalf("create with no healthy nodes = %v, want ErrNodeUnavailable", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("no-healthy-node create took %v, want fast rejection", elapsed)
	}
}

// TestChaosConcurrentClientsUnderFaults is the concurrency stress test:
// N clients hammer a cluster that suffers latency, a partition, and a
// heal mid-run. Every failure must surface as a typed error, and every
// file that was reported created must be readable once the dust settles.
func TestChaosConcurrentClientsUnderFaults(t *testing.T) {
	cl, srv, nodes, serverNet, clientNet := chaosCluster(t, 2)
	_ = cl

	for _, n := range nodes {
		clientNet.SetFault(n.Addr(), faultnet.Fault{Latency: 2 * time.Millisecond})
	}

	const goroutines = 8
	const filesEach = 6
	var mu sync.Mutex
	var created []string
	var typedErrs, untypedErrs []error

	noteErr := func(err error) {
		var te *proto.TransportError
		var re *proto.RemoteError
		mu.Lock()
		defer mu.Unlock()
		if errors.Is(err, ErrNodeUnavailable) || errors.Is(err, ErrFileNotFound) ||
			errors.As(err, &te) || errors.As(err, &re) {
			typedErrs = append(typedErrs, err)
		} else {
			untypedErrs = append(untypedErrs, err)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := DialConfig(srv.Addr(), ClientConfig{Dialer: clientNet, Transport: chaosTransport()})
			if err != nil {
				noteErr(err)
				return
			}
			defer c.Close()
			for i := 0; i < filesEach; i++ {
				name := fmt.Sprintf("w%d-%d", g, i)
				if err := c.Create(name, bytes.Repeat([]byte{byte(g)}, 700)); err != nil {
					noteErr(err)
					continue
				}
				mu.Lock()
				created = append(created, name)
				mu.Unlock()
				if _, _, err := c.Read(name); err != nil {
					noteErr(err)
				}
				if _, err := c.List(); err != nil {
					noteErr(err)
				}
			}
		}(g)
	}

	// Mid-run: partition node 1, let the prober degrade the cluster,
	// then heal it while the writers keep running.
	victim := nodes[1].Addr()
	time.Sleep(20 * time.Millisecond)
	serverNet.Partition(victim)
	clientNet.Partition(victim)
	time.Sleep(150 * time.Millisecond)
	serverNet.Heal(victim)
	clientNet.Heal(victim)

	wg.Wait()

	if len(untypedErrs) > 0 {
		t.Fatalf("%d untyped errors under chaos, first: %v", len(untypedErrs), untypedErrs[0])
	}

	// After healing, everything that was acknowledged must be readable.
	waitHealthy(t, srv, 1, true)
	c, err := DialConfig(srv.Addr(), ClientConfig{Dialer: clientNet, Transport: chaosTransport()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, name := range created {
		if _, _, err := c.Read(name); err != nil {
			t.Fatalf("file %s acknowledged but unreadable after heal: %v", name, err)
		}
	}
	t.Logf("chaos run: %d files created, %d typed errors surfaced", len(created), len(typedErrs))
}

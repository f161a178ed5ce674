package fs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"eevfs/internal/faultnet"
	"eevfs/internal/telemetry"
)

// TestTelemetryAdminEndToEnd is the observability acceptance scenario: a
// client whose transport carries a telemetry registry runs traffic against
// a cluster (with one dial refusal forcing a retry), and the resulting RPC
// latency histogram and retry counter are visible over the admin HTTP
// endpoint as JSON.
func TestTelemetryAdminEndToEnd(t *testing.T) {
	cl, srv, nodes, _, clientNet := chaosCluster(t, 1)
	if err := cl.Create("f", bytes.Repeat([]byte("x"), 800)); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	tc := chaosTransport()
	tc.Metrics = reg
	cl2, err := DialConfig(srv.Addr(), ClientConfig{Dialer: clientNet, Transport: tc})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()

	// The instrumented client's first data dial to the node is refused
	// once; the retry policy absorbs it and the retry counter records it.
	clientNet.SetFault(nodes[0].Addr(), faultnet.Fault{RefuseDials: 1})
	if _, _, err := cl2.Read("f"); err != nil {
		t.Fatalf("read with one refused dial: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := cl2.List(); err != nil {
			t.Fatal(err)
		}
	}

	admin, err := telemetry.StartAdminConfig("127.0.0.1:0", telemetry.AdminConfig{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()

	resp, err := http.Get("http://" + admin.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	var snap telemetry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decoding /metrics JSON: %v", err)
	}

	if got := snap.Counters["proto.rt.retries"]; got < 1 {
		t.Errorf("proto.rt.retries over admin endpoint = %d, want >= 1", got)
	}
	h, ok := snap.Histograms["proto.rt.seconds"]
	if !ok {
		t.Fatal("proto.rt.seconds histogram missing from admin snapshot")
	}
	// Read (lookup + data RPC) + 3 lists, at minimum.
	if h.Count < 5 {
		t.Errorf("proto.rt.seconds count = %d, want >= 5", h.Count)
	}
	if snap.Counters["proto.rt.calls"] <= snap.Counters["proto.rt.retries"] {
		t.Errorf("calls (%d) should exceed retries (%d)",
			snap.Counters["proto.rt.calls"], snap.Counters["proto.rt.retries"])
	}
}

// TestStatsCountersEndToEnd: counters flow over the wire in StatsResp —
// the node exports its registry (or built-in counters), and the server
// prefixes each node's counters with "nodeN/" and appends its own.
func TestStatsCountersEndToEnd(t *testing.T) {
	cl, _, nodes, _, _ := chaosCluster(t, 2)
	if err := cl.Create("f", bytes.Repeat([]byte("y"), 600)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Read("f"); err != nil {
		t.Fatal(err)
	}

	stats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	counters := make(map[string]int64, len(stats.Counters))
	for _, c := range stats.Counters {
		counters[c.Name] = c.Value
	}

	// chaosCluster attaches no registries, so the node falls back to its
	// built-in buffer counters; one miss from the read must show up on
	// one of the nodes.
	var misses int64
	for i := range nodes {
		misses += counters[fmt.Sprintf("node%d/node.buffer.misses", i)]
	}
	if misses < 1 {
		t.Errorf("aggregated node buffer misses = %d, want >= 1; counters: %v",
			misses, counters)
	}
	for name := range counters {
		if !strings.HasPrefix(name, "node0/") && !strings.HasPrefix(name, "node1/") &&
			strings.HasPrefix(name, "node.") {
			t.Errorf("node counter %q reached the client without a node prefix", name)
		}
	}
}

// TestWriteHalfTelemetryOnDaemon: the accepting side's write half counts
// on the daemon's registry under the names the dialing side uses, so
// frames per flush reads the same on /metrics at either end.
func TestWriteHalfTelemetryOnDaemon(t *testing.T) {
	reg := telemetry.NewRegistry()
	cl, _, _ := testCluster(t, 1, func(cfg *NodeConfig) { cfg.Metrics = reg })
	if err := cl.Create("f", bytes.Repeat([]byte("z"), 700)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := cl.Read("f"); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	frames, flushes := snap.Histograms["proto.queue.depth"].Count, snap.Counters["proto.write.flushes"]
	// The node answered one write and five reads at least (the server's
	// probes and create come on top).
	if frames < 6 || flushes < 1 || flushes > frames {
		t.Fatalf("node registry: %d frames in %d flushes, want >= 6 frames and 1 <= flushes <= frames", frames, flushes)
	}
}

// An untraced client operation opens its root span for free: callers pass
// the span's full constant name, so a nil tracer leaves nothing to build.
func TestUntracedStartOpAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	c := &Client{}
	if n := testing.AllocsPerRun(100, func() {
		c.startOp("client.read", "f").End(nil)
	}); n != 0 {
		t.Errorf("startOp with no tracer: %v allocations, want 0", n)
	}
}

package fs

import (
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"eevfs/internal/proto"
	"eevfs/internal/simtest/leak"
	"eevfs/internal/telemetry"
)

// loadTestAddrs boots a cluster shaped for load runs — latency injection
// and DPM off, since the harness measures the stack and not the disk
// model, and the production transport and health policy — and returns
// the server addresses to aim RunLoad at.
func loadTestAddrs(t *testing.T, servers, nodes int) []string {
	t.Helper()
	return startLocal(t, LocalConfig{Nodes: nodes, Servers: servers,
		Node: func(_ int, c *NodeConfig) { c.IdleThresholdSec = 0 },
	}).Addrs
}

// TestLoadSmokeAccounting: a tiny in-process load run must complete with
// consistent accounting — issued == completed + failed, zero errors on a
// healthy cluster, and latency observations for every op issued.
func TestLoadSmokeAccounting(t *testing.T) {
	leak.Check(t)
	addrs := loadTestAddrs(t, 1, 2)
	reg := telemetry.NewRegistry()
	var reports int
	res, err := RunLoad(LoadConfig{
		ServerAddrs: addrs,
		Clients:     32,
		Conns:       4,
		MaxOps:      800,
		Duration:    30 * time.Second, // backstop; MaxOps trips first
		RatePerSec:  4000,
		Files:       64,
		FileSize:    2 << 10,
		WriteFrac:   0.1,
		StreamFrac:  0.2,
		Seed:        1,
		Registry:    reg,
		ReportEvery: 50 * time.Millisecond,
		OnReport:    func(LoadReport) { reports++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Issued != res.Completed+res.Failed {
		t.Fatalf("accounting broken: issued %d != completed %d + failed %d",
			res.Issued, res.Completed, res.Failed)
	}
	if res.Failed != 0 || len(res.Errors) != 0 {
		t.Fatalf("healthy cluster produced errors: failed=%d taxonomy=%v", res.Failed, res.Errors)
	}
	if res.Issued == 0 {
		t.Fatal("no ops issued")
	}
	var opTotal int64
	for class, st := range res.Ops {
		opTotal += st.Count
		if st.Count > 0 && st.P50 <= 0 {
			t.Errorf("op class %s: %d ops but zero p50", class, st.Count)
		}
	}
	if opTotal != res.Issued {
		t.Fatalf("per-class counts sum to %d, issued %d", opTotal, res.Issued)
	}
	if res.Ops[LoadOpWrite].Count == 0 || res.Ops[LoadOpStream].Count == 0 {
		t.Fatalf("op mix not exercised: %+v", res.Ops)
	}
	if reports == 0 {
		t.Error("no live reports emitted")
	}
	if res.AchievedRate <= 0 {
		t.Fatalf("non-positive achieved rate %g", res.AchievedRate)
	}
	// The transport taxonomy must have flowed into the same registry.
	if res.Counters["proto.rt.calls"] == 0 {
		t.Error("transport metrics missing from the result counters")
	}
}

// TestLoadClosedLoop: RatePerSec 0 must run back-to-back (closed loop)
// and still account exactly.
func TestLoadClosedLoop(t *testing.T) {
	leak.Check(t)
	addrs := loadTestAddrs(t, 1, 2)
	res, err := RunLoad(LoadConfig{
		ServerAddrs: addrs,
		Clients:     16,
		Conns:       4,
		MaxOps:      400,
		Duration:    30 * time.Second,
		Files:       32,
		FileSize:    1 << 10,
		Seed:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Issued != res.Completed+res.Failed || res.Failed != 0 {
		t.Fatalf("closed-loop accounting broken: %+v", res)
	}
	if res.OfferedRate != 0 {
		t.Fatalf("closed loop reported offered rate %g", res.OfferedRate)
	}
}

// TestLoadValidation: broken configurations are rejected before any
// connection is dialed.
func TestLoadValidation(t *testing.T) {
	bad := []LoadConfig{
		{},
		{ServerAddrs: []string{"127.0.0.1:1"}}, // no clients
		{ServerAddrs: []string{"127.0.0.1:1"}, Clients: 4},                                             // no bound
		{ServerAddrs: []string{"127.0.0.1:1"}, Clients: 4, MaxOps: 1, RatePerSec: -2},                  // negative rate
		{ServerAddrs: []string{"127.0.0.1:1"}, Clients: 4, MaxOps: 1, WriteFrac: 0.8, StreamFrac: 0.5}, // mix > 1
		{ServerAddrs: []string{"127.0.0.1:1"}, Clients: 4, MaxOps: 1, RatePerSec: 10, Process: "nope"},
	}
	for i, cfg := range bad {
		if _, err := RunLoad(cfg); err == nil {
			t.Errorf("case %d: invalid load config accepted", i)
		}
	}
}

// TestLoadErrorTaxonomy: ops against a dead node land in the typed
// error taxonomy rather than vanishing or crashing the run.
func TestLoadErrorTaxonomy(t *testing.T) {
	leak.Check(t)
	cl, srv, nodes := testCluster(t, 2, func(c *NodeConfig) {
		c.InjectLatency = false
		c.IdleThresholdSec = 0
	})
	_ = cl
	// Preload through a throwaway run, then kill every node so lookups
	// fail over to nothing: reads die with unavailable/transport errors.
	if _, err := RunLoad(LoadConfig{
		ServerAddrs: []string{srv.Addr()}, Clients: 4, MaxOps: 8,
		Duration: 10 * time.Second, Files: 8, FileSize: 512, Seed: 3,
	}); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		n.Close()
	}
	res, err := RunLoad(LoadConfig{
		ServerAddrs: []string{srv.Addr()}, Clients: 4, MaxOps: 40,
		Duration: 30 * time.Second, Files: 8, FileSize: 512, Seed: 4,
		SkipPreload: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Issued != res.Completed+res.Failed {
		t.Fatalf("accounting broken under faults: %+v", res)
	}
	if res.Failed == 0 || len(res.Errors) == 0 {
		t.Fatalf("dead nodes produced no typed errors: %+v", res)
	}
}

// TestLoadHighFanIn is the ≥10,000-concurrent-clients acceptance run
// against a live replicated group, gated behind EEVFS_LOAD_HEAVY because
// it wants real cores and a few seconds of wall clock. The CI load-smoke
// job runs it without the race detector.
func TestLoadHighFanIn(t *testing.T) {
	if os.Getenv("EEVFS_LOAD_HEAVY") == "" {
		t.Skip("set EEVFS_LOAD_HEAVY=1 to run the 10k-client fan-in test")
	}
	leak.Check(t)
	addrs := loadTestAddrs(t, 3, 3)
	res, err := RunLoad(LoadConfig{
		ServerAddrs: addrs,
		Clients:     10000,
		Conns:       64,
		Duration:    8 * time.Second,
		RatePerSec:  12000,
		Files:       256,
		FileSize:    4 << 10,
		WriteFrac:   0.05,
		StreamFrac:  0.05,
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Issued != res.Completed+res.Failed {
		t.Fatalf("accounting broken at 10k clients: %+v", res)
	}
	if res.Failed != 0 {
		t.Fatalf("10k-client run produced %d typed errors: %v", res.Failed, res.Errors)
	}
	if res.Issued < 1000 {
		t.Fatalf("only %d ops issued in 8s at 10k clients", res.Issued)
	}
	t.Logf("10k clients: issued=%d achieved=%.0f/s read p99=%.1fms",
		res.Issued, res.AchievedRate, res.Ops[LoadOpRead].P99*1000)
}

// timeoutErr satisfies net.Error with Timeout()==true, so a wrapping
// proto.TransportError classifies as a deadline death.
type timeoutErr struct{}

func (timeoutErr) Error() string   { return "i/o timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

// TestClassifyLoadErr pins the harness error taxonomy: every typed error
// the stack produces files into a stable bucket, wrapped or not.
func TestClassifyLoadErr(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{ErrNotPrimary, "remote.notprimary"},
		{fmt.Errorf("lookup: %w", ErrNotPrimary), "remote.notprimary"},
		{ErrFileNotFound, "remote.notfound"},
		{ErrNodeUnavailable, "remote.unavailable"},
		{&proto.TransportError{Addr: "x", Attempts: 1, Err: timeoutErr{}}, "transport.timeout"},
		{&proto.TransportError{Addr: "x", Attempts: 1, Err: errors.New("reset")}, "transport"},
		{&proto.RemoteError{Code: proto.CodeGeneric, Msg: "boom"}, "remote.generic"},
		{errors.New("mystery"), "other"},
	}
	for _, c := range cases {
		if got := classifyLoadErr(c.err); got != c.want {
			t.Errorf("classifyLoadErr(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

// TestLoadWindowAgesOut: a report's window spans exactly loadWindow ticks
// — a slow tick shows in the window of each of the next loadWindow-1 ticks
// and is gone from the one after.
func TestLoadWindowAgesOut(t *testing.T) {
	c := &loadClass{hist: telemetry.NewRegistry().Histogram("load.lat.test", loadBuckets)}
	for i := 0; i < 1000; i++ {
		c.hist.Observe(10) // slow tick: 10s observations
	}
	for tick := 1; tick <= loadWindow+1; tick++ {
		win := c.window()
		switch slow := tick <= loadWindow; {
		case slow && win.P99 < 5:
			t.Fatalf("tick %d: p99 %g does not reflect the slow tick", tick, win.P99)
		case !slow && (win.Count != loadWindow*1000 || win.P99 > 0.01):
			t.Fatalf("tick %d: %d observations with p99 %g; want the %d fast ones alone",
				tick, win.Count, win.P99, loadWindow*1000)
		}
		for i := 0; i < 1000; i++ {
			c.hist.Observe(0.001)
		}
	}
}

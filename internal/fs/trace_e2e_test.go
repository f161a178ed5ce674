package fs

import (
	"math"
	"strings"
	"testing"
	"time"

	"eevfs/internal/disk"
	"eevfs/internal/simtest/leak"
	"eevfs/internal/telemetry"
)

// tracedGroup is a replicated server group plus nodes that all share one
// tracer and one energy ledger, so a single-process test can assemble
// the complete cross-process span tree of a request and join it against
// the per-request joule attribution.
type tracedGroup struct {
	*Local
	tracer *telemetry.Tracer
	energy *telemetry.EnergyLedger
}

// startTracedGroup boots a group as startGroup does but threads a shared
// Tracer into every server and a shared Tracer+EnergyLedger into every
// node. Nodes run without latency injection and with a short idle
// threshold at TimeScale 100, so data disks reach standby ~10ms (real)
// after their last request and modeled durations (spin-up, service) are
// exact — the property the energy assertions lean on.
func startTracedGroup(t *testing.T, numServers, numNodes int, mirror bool) *tracedGroup {
	t.Helper()
	leak.Check(t)
	g := &tracedGroup{
		tracer: telemetry.NewTracer(telemetry.TracerConfig{Capacity: 1 << 16}),
		energy: telemetry.NewEnergyLedger(0),
	}
	g.Local = startLocal(t, LocalConfig{Nodes: numNodes, Servers: numServers,
		Node: func(_ int, c *NodeConfig) {
			c.IdleThresholdSec, c.TimeScale, c.WriteTimeout = 1, 100, time.Second
			c.Tracer, c.Energy = g.tracer, g.energy
		},
		Server: func(_ int, c *ServerConfig) {
			chaosServer(c)
			c.MirrorPrefetch, c.Tracer = mirror, g.tracer
		},
	})
	return g
}

// waitDiskState polls one node disk until it reaches the wanted power
// state.
func waitDiskState(t *testing.T, nd *nodeDisk, want disk.PowerState) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		nd.mu.Lock()
		st := nd.d.State()
		nd.mu.Unlock()
		if st == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("disk %s never reached %v", nd.label, want)
}

// lastTrace returns the spans of the newest trace whose root span has
// the given name, keyed off the recorded ring.
func lastTrace(tr *telemetry.Tracer, rootName string) []telemetry.SpanData {
	spans := tr.Spans()
	var rootID uint64
	var rootStart int64
	for _, d := range spans {
		if d.ParentID == 0 && d.Name == rootName && d.StartNs >= rootStart {
			rootID, rootStart = d.TraceID, d.StartNs
		}
	}
	if rootID == 0 {
		return nil
	}
	var out []telemetry.SpanData
	for _, d := range spans {
		if d.TraceID == rootID {
			out = append(out, d)
		}
	}
	return out
}

// spanBy returns the spans in the trace matching service+name.
func spanBy(trace []telemetry.SpanData, service, name string) []telemetry.SpanData {
	var out []telemetry.SpanData
	for _, d := range trace {
		if d.Service == service && d.Name == name {
			out = append(out, d)
		}
	}
	return out
}

func attrVal(d telemetry.SpanData, key string) string {
	for _, a := range d.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// TestTraceE2EReplicatedRead drives client operations through a
// 3-server replicated group over 2 nodes and asserts the resulting span
// trees cover, end to end:
//
//   - a client retry following a not-primary redirect (the read's first
//     round trip lands on a follower),
//   - the primary's fan-out to every node (prefetch) and to its
//     replication peers (op-log appends),
//   - the node-level disk work, including a buffer-disk spin-up,
//   - a node fault surviving via the mirrored replica,
//
// and that the energy ledger attributes exactly the modeled joules
// (spin-up + active service) to the read that woke the disk.
func TestTraceE2EReplicatedRead(t *testing.T) {
	g := startTracedGroup(t, 3, 2, true)
	if _, err := g.Primary(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Seed two files through a primary-first client: one per node via
	// round-robin placement.
	seedCl, err := DialCluster(g.Addrs, ClientConfig{
		Transport: chaosTransport(), Tracer: g.tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer seedCl.Close()
	hot := make([]byte, 64<<10)
	for i := range hot {
		hot[i] = byte(i)
	}
	if err := seedCl.Create("hot", hot); err != nil {
		t.Fatal(err)
	}
	if err := seedCl.Create("cold", []byte("cold content")); err != nil {
		t.Fatal(err)
	}

	// Let every serviced data disk spin down to standby.
	for _, n := range g.Nodes {
		for _, nd := range n.data {
			nd.mu.Lock()
			serviced := nd.d.Stats().Requests > 0
			nd.mu.Unlock()
			if serviced {
				waitDiskState(t, nd, disk.Standby)
			}
		}
	}

	// A fresh client dialed follower-first: its first operation must walk
	// a not-primary redirect before reaching the primary, and the read
	// lands on a standby disk — retry, redirect, spin-up, and service all
	// in one trace.
	followerFirst := []string{g.Addrs[1], g.Addrs[0], g.Addrs[2]}
	cl, err := DialCluster(followerFirst, ClientConfig{
		Transport: chaosTransport(), Tracer: g.tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	data, fromBuffer, err := cl.Read("hot")
	if err != nil {
		t.Fatal(err)
	}
	if fromBuffer || len(data) != len(hot) {
		t.Fatalf("read: fromBuffer=%v len=%d", fromBuffer, len(data))
	}

	trace := lastTrace(g.tracer, "client.read")
	if len(trace) == 0 {
		t.Fatal("no client.read trace recorded")
	}
	if or := telemetry.Orphans(trace); len(or) != 0 {
		t.Fatalf("read trace has orphan spans: %+v", or)
	}
	// Client retry across the redirect: at least two server round-trip
	// attempts, the first of which failed with not-primary.
	attempts := spanBy(trace, "client", "client.rt.server")
	if len(attempts) < 2 {
		t.Fatalf("read trace has %d server attempts, want >= 2 (redirect retry)", len(attempts))
	}
	var sawRedirect bool
	for _, a := range attempts {
		if strings.Contains(a.Err, "not the primary") || attrVal(a, "redirect") != "" {
			sawRedirect = true
		}
	}
	if !sawRedirect {
		t.Fatalf("no attempt span shows the not-primary redirect: %+v", attempts)
	}
	// The primary's handler span, the node round trip, and the node-side
	// disk work — including the spin-up the standby disk paid.
	for _, want := range [][2]string{
		{"server", "server.lookup"},
		{"client", "client.rt.node"},
		{"node", "node.read"},
		{"node", "disk.read"},
		{"node", "disk.spinup"},
	} {
		if len(spanBy(trace, want[0], want[1])) == 0 {
			t.Fatalf("read trace missing %s/%s span; got %+v", want[0], want[1], trace)
		}
	}
	homeAddr := attrVal(spanBy(trace, "client", "client.rt.node")[0], "peer")
	if homeAddr == "" {
		t.Fatal("node round-trip span missing peer annotation")
	}

	// Energy attribution: the read woke one standby disk and ran one
	// service on it, so its trace must be charged exactly the modeled
	// spin-up plus active-service joules (latency injection is off, so
	// dwell times are the model's own — same tolerance discipline as the
	// simulation oracles).
	m := disk.ModelType1
	wantJ := m.SpinUpJ + m.PActive*m.ServiceTime(int64(len(hot)))
	gotJ := g.energy.TraceJ(trace[0].TraceID)
	if math.Abs(gotJ-wantJ) > 1e-6*wantJ {
		t.Fatalf("read trace energy = %.9f J, want %.9f J", gotJ, wantJ)
	}
	var spanJ float64
	for _, d := range trace {
		spanJ += d.EnergyJ
	}
	if math.Abs(spanJ-wantJ) > 1e-6*wantJ {
		t.Fatalf("span-level energy = %.9f J, want %.9f J", spanJ, wantJ)
	}

	// Prefetch fans out from the primary to every node and replicates
	// the resulting metadata ops to both peers; the trace must cover the
	// whole fan-out.
	if _, err := cl.Prefetch(2); err != nil {
		t.Fatal(err)
	}
	ptrace := lastTrace(g.tracer, "client.prefetch")
	if or := telemetry.Orphans(ptrace); len(or) != 0 {
		t.Fatalf("prefetch trace has orphan spans: %+v", or)
	}
	if got := len(spanBy(ptrace, "server", "node.prefetch")); got < 2 {
		t.Fatalf("prefetch trace shows fan-out to %d nodes, want >= 2", got)
	}
	if got := len(spanBy(ptrace, "server", "repl.append.peer")); got < 1 {
		t.Fatalf("prefetch trace shows no replication append spans")
	}

	// Node fault: kill the home node of "hot" and keep reading until the
	// prober notices and the lookup falls back to the mirrored replica on
	// the surviving node.
	for _, n := range g.Nodes {
		if n.Addr() == homeAddr {
			n.Close()
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	var recovered bool
	for time.Now().Before(deadline) {
		data, fromBuffer, err = cl.Read("hot")
		if err == nil {
			ft := lastTrace(g.tracer, "client.read")
			nrt := spanBy(ft, "client", "client.rt.node")
			if len(nrt) > 0 && nrt[0].Err == "" && attrVal(nrt[0], "peer") != homeAddr {
				if !fromBuffer {
					t.Fatalf("mirror fallback read not served from buffer replica")
				}
				if or := telemetry.Orphans(ft); len(or) != 0 {
					t.Fatalf("fallback trace has orphan spans: %+v", or)
				}
				recovered = true
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !recovered {
		t.Fatal("read never recovered onto the mirror replica")
	}

	// Ledger-internal conservation, the same invariant the simulation
	// oracles enforce on the disks: everything attributed somewhere.
	snap := g.energy.Snapshot()
	var perTrace float64
	for _, j := range snap.PerTrace {
		perTrace += j
	}
	if math.Abs(snap.TotalJ-(snap.BackgroundJ+perTrace)) > 1e-6*snap.TotalJ {
		t.Fatalf("energy not conserved: total %.9f != background %.9f + traces %.9f",
			snap.TotalJ, snap.BackgroundJ, perTrace)
	}

	// Finally: the whole recorded ring is a forest — every span's parent
	// resolves within its own trace.
	if or := telemetry.Orphans(g.tracer.Spans()); len(or) != 0 {
		t.Fatalf("recorded ring has %d orphan spans: %+v", len(or), or)
	}
}

// TestTraceTreeSurvivesPrimaryKill asserts trace trees stay well-formed
// (no orphan spans) when the primary dies mid-workload and the client
// redials onto the new primary — the spans of interrupted round trips
// must still close into their trees.
func TestTraceTreeSurvivesPrimaryKill(t *testing.T) {
	g := startTracedGroup(t, 3, 1, false)
	pi, err := g.Primary(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := DialCluster(g.Addrs, ClientConfig{
		Transport: chaosTransport(), Tracer: g.tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Create("steady", []byte("steady content")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := cl.Read("steady"); err != nil {
			t.Fatal(err)
		}
	}

	// Kill the primary and keep the workload going until the client has
	// redialed onto the new primary and succeeded repeatedly.
	g.Servers[pi].Close()
	deadline := time.Now().Add(10 * time.Second)
	succeeded := 0
	sawFailure := false
	for succeeded < 5 && time.Now().Before(deadline) {
		if _, _, err := cl.Read("steady"); err != nil {
			sawFailure = true
			time.Sleep(10 * time.Millisecond)
			continue
		}
		succeeded++
	}
	if succeeded < 5 {
		t.Fatal("workload never recovered after primary kill")
	}

	spans := g.tracer.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	if or := telemetry.Orphans(spans); len(or) != 0 {
		t.Fatalf("%d orphan spans after primary kill: %+v", len(or), or)
	}
	// The kill must actually be visible in the trace record: either a
	// failed read attempt or an errored span.
	var sawErrSpan bool
	for _, d := range spans {
		if d.Err != "" {
			sawErrSpan = true
			break
		}
	}
	if !sawFailure && !sawErrSpan {
		t.Log("note: failover completed without an observable failed attempt")
	}
}

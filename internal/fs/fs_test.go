package fs

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"eevfs/internal/disk"
	"eevfs/internal/proto"
)

// testCluster boots one server over numNodes latency-injecting nodes on
// the harness's fast model clock (5 s model = 2.5 ms real) and returns a
// connected client; mod, when set, adjusts each node.
func testCluster(t *testing.T, numNodes int, mod func(*NodeConfig)) (*Client, *Server, []*Node) {
	t.Helper()
	return testClusterSrv(t, numNodes, mod, nil)
}

// testClusterSrv is testCluster with a server-config hook too.
func testClusterSrv(t *testing.T, numNodes int, mod func(*NodeConfig), srvMod func(*ServerConfig)) (*Client, *Server, []*Node) {
	t.Helper()
	l := startLocal(t, LocalConfig{Nodes: numNodes, Servers: 1,
		Node: func(_ int, c *NodeConfig) {
			c.InjectLatency = true
			if mod != nil {
				mod(c)
			}
		},
		Server: func(_ int, c *ServerConfig) {
			if srvMod != nil {
				srvMod(c)
			}
		},
	})
	return dialLocal(t, l, ClientConfig{}), l.Servers[0], l.Nodes
}

func TestCreateReadRoundTrip(t *testing.T) {
	cl, _, _ := testCluster(t, 2, nil)
	content := bytes.Repeat([]byte("eevfs"), 1000)
	if err := cl.Create("a.dat", content); err != nil {
		t.Fatal(err)
	}
	got, fromBuffer, err := cl.Read("a.dat")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("content mismatch")
	}
	if fromBuffer {
		t.Fatal("unprefetched read claimed to come from the buffer disk")
	}
}

func TestReadMissingFile(t *testing.T) {
	cl, _, _ := testCluster(t, 1, nil)
	if _, _, err := cl.Read("ghost"); err == nil || !strings.Contains(err.Error(), "no such file") {
		t.Fatalf("err = %v", err)
	}
}

func TestCreateDuplicateRejected(t *testing.T) {
	cl, _, _ := testCluster(t, 1, nil)
	if err := cl.Create("dup", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Create("dup", []byte("y")); err == nil {
		t.Fatal("duplicate create accepted")
	}
}

func TestCreateEmptyRejected(t *testing.T) {
	cl, _, _ := testCluster(t, 1, nil)
	if err := cl.Create("empty", nil); err == nil {
		t.Fatal("empty create accepted")
	}
}

func TestListAndDelete(t *testing.T) {
	cl, _, _ := testCluster(t, 2, nil)
	for _, name := range []string{"b", "a", "c"} {
		if err := cl.Create(name, []byte("data")); err != nil {
			t.Fatal(err)
		}
	}
	names, err := cl.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || names[0] != "a" || names[2] != "c" {
		t.Fatalf("List = %v", names)
	}
	if err := cl.Delete("b"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Read("b"); err == nil {
		t.Fatal("deleted file still readable")
	}
	if err := cl.Delete("b"); err == nil {
		t.Fatal("double delete accepted")
	}
	names, _ = cl.List()
	if len(names) != 2 {
		t.Fatalf("List after delete = %v", names)
	}
}

func TestRoundRobinPlacementAcrossNodes(t *testing.T) {
	cl, _, nodes := testCluster(t, 2, nil)
	for i := 0; i < 4; i++ {
		if err := cl.Create(fmt.Sprintf("f%d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// Creation order alternates between the two nodes.
	if len(nodes[0].Files()) != 2 || len(nodes[1].Files()) != 2 {
		t.Fatalf("node file counts = %d/%d, want 2/2",
			len(nodes[0].Files()), len(nodes[1].Files()))
	}
}

func TestPrefetchServesFromBuffer(t *testing.T) {
	cl, _, _ := testCluster(t, 2, nil)
	hot := bytes.Repeat([]byte("hot"), 500)
	if err := cl.Create("hot.dat", hot); err != nil {
		t.Fatal(err)
	}
	if err := cl.Create("cold.dat", []byte("cold")); err != nil {
		t.Fatal(err)
	}
	// Make hot.dat popular.
	for i := 0; i < 5; i++ {
		if _, _, err := cl.Read("hot.dat"); err != nil {
			t.Fatal(err)
		}
	}
	n, err := cl.Prefetch(1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("prefetched %d files, want 1", n)
	}
	got, fromBuffer, err := cl.Read("hot.dat")
	if err != nil {
		t.Fatal(err)
	}
	if !fromBuffer {
		t.Fatal("prefetched file not served from buffer disk")
	}
	if !bytes.Equal(got, hot) {
		t.Fatal("buffer copy corrupted")
	}
	// The cold file still comes from its data disk.
	_, fromBuffer, err = cl.Read("cold.dat")
	if err != nil {
		t.Fatal(err)
	}
	if fromBuffer {
		t.Fatal("unprefetched file served from buffer")
	}
}

func TestStatsReportEnergyAndStates(t *testing.T) {
	cl, _, _ := testCluster(t, 2, nil)
	if err := cl.Create("f", bytes.Repeat([]byte("z"), 10000)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Read("f"); err != nil {
		t.Fatal(err)
	}
	stats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// 2 nodes x (1 buffer + 2 data) disks.
	if len(stats.Disks) != 6 {
		t.Fatalf("got %d disk stats, want 6", len(stats.Disks))
	}
	var totalEnergy float64
	var requests int64
	for _, ds := range stats.Disks {
		if !strings.HasPrefix(ds.Name, "node") {
			t.Errorf("disk name %q not node-prefixed", ds.Name)
		}
		totalEnergy += ds.EnergyJ
		requests += ds.Requests
	}
	if totalEnergy <= 0 {
		t.Error("no energy accounted")
	}
	if requests < 2 { // one write, one read
		t.Errorf("requests = %d, want >= 2", requests)
	}
}

func TestIdleThresholdSpinsDiskDown(t *testing.T) {
	cl, _, nodes := testCluster(t, 1, nil)
	if err := cl.Create("f", []byte("data")); err != nil {
		t.Fatal(err)
	}
	// Model threshold is 5 s at scale 2000 => 2.5 ms real. Wait well past
	// threshold + spin-down for the disk holding f: the other one, which
	// nothing touched, sleeps from boot.
	holder := fmt.Sprintf("node0/data%d", nodes[0].Files()[0].Disk)
	deadline := time.Now().Add(2 * time.Second)
	for {
		stats, err := cl.Stats()
		if err != nil {
			t.Fatal(err)
		}
		asleep := false
		for _, ds := range stats.Disks {
			if ds.Name == holder && ds.State == "standby" {
				asleep = true
			}
		}
		if asleep {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never reached standby; stats: %+v", holder, stats.Disks)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A read wakes the disk and succeeds (paying the modeled spin-up).
	if _, _, err := cl.Read("f"); err != nil {
		t.Fatal(err)
	}
	hits, misses, _ := nodes[0].Counters()
	if hits != 0 || misses == 0 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
	stats, _ := cl.Stats()
	spinUps := int64(0)
	for _, ds := range stats.Disks {
		spinUps += ds.SpinUps
	}
	if spinUps == 0 {
		t.Fatal("reactivated disk recorded no spin-ups")
	}
}

func TestBufferDiskNeverSleeps(t *testing.T) {
	cl, _, _ := testCluster(t, 1, nil)
	if err := cl.Create("f", []byte("data")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // many model-threshold periods
	stats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range stats.Disks {
		if strings.HasSuffix(ds.Name, "buffer") && ds.State == "standby" {
			t.Fatal("buffer disk went to standby")
		}
	}
}

func TestWriteBufferAbsorbsWrites(t *testing.T) {
	cl, _, nodes := testCluster(t, 1, func(c *NodeConfig) { c.WriteBuffer = true })
	if err := cl.Create("f", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	buffered, err := cl.Write("f", []byte("v2-new-content"))
	if err != nil {
		t.Fatal(err)
	}
	if !buffered {
		t.Fatal("write not absorbed by the write buffer")
	}
	// Reads see the newest (buffered) content.
	got, fromBuffer, err := cl.Read("f")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v2-new-content" {
		t.Fatalf("read %q after buffered write", got)
	}
	if !fromBuffer {
		t.Fatal("dirty file not served from buffer")
	}
	_, _, bufWrites := nodes[0].Counters()
	if bufWrites != 2 { // create upload + overwrite both buffered
		t.Fatalf("buffered writes = %d, want 2", bufWrites)
	}
}

func TestWriteBufferFlushOnClose(t *testing.T) {
	l := startLocal(t, LocalConfig{Nodes: 1, Servers: 1, Node: func(_ int, c *NodeConfig) {
		c.DataDisks, c.IdleThresholdSec, c.InjectLatency, c.WriteBuffer = 1, 0, true, true
	}})
	cl := dialLocal(t, l, ClientConfig{})
	if err := cl.Create("f", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	l.Servers[0].Close()
	if err := l.Nodes[0].Close(); err != nil {
		t.Fatal(err)
	}
	// After shutdown the data disk directory must hold the flushed copy.
	data, err := readFileInDir(l.Nodes[0].cfg.RootDir, "data0")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "payload" {
		t.Fatalf("flushed content = %q", data)
	}
}

func readFileInDir(root, sub string) ([]byte, error) {
	entries, err := osReadDir(root + "/" + sub)
	if err != nil {
		return nil, err
	}
	if len(entries) != 1 {
		return nil, fmt.Errorf("want exactly one file in %s, got %d", sub, len(entries))
	}
	return osReadFile(root + "/" + sub + "/" + entries[0])
}

func TestConcurrentClients(t *testing.T) {
	cl, srv, _ := testCluster(t, 2, nil)
	if err := cl.Create("shared", bytes.Repeat([]byte("s"), 2000)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < 10; i++ {
				if _, _, err := c.Read("shared"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if srv.AccessCount() < 80 {
		t.Fatalf("access log has %d entries, want >= 80", srv.AccessCount())
	}
}

// dialFramed opens a raw connection to addr and sends the preface, for
// tests that speak frames directly.
func dialFramed(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := proto.WritePreface(conn); err != nil {
		t.Fatal(err)
	}
	return conn
}

func TestMalformedFrameGetsErrorNotCrash(t *testing.T) {
	_, srv, _ := testCluster(t, 1, nil)
	conn := dialFramed(t, srv.Addr())
	// A CreateReq frame whose payload is garbage.
	if err := proto.WriteFrameID(conn, proto.TCreateReq, 1, []byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2}); err != nil {
		t.Fatal(err)
	}
	ty, id, _, err := proto.ReadFrameID(conn)
	if err != nil {
		t.Fatal(err)
	}
	if ty != proto.TError || id != 1 {
		t.Fatalf("got type %d id %d, want TError for request 1", ty, id)
	}
	// The connection is still usable afterwards.
	if err := proto.WriteFrameID(conn, proto.TListReq, 2, nil); err != nil {
		t.Fatal(err)
	}
	if ty, id, _, err := proto.ReadFrameID(conn); err != nil || ty != proto.TListResp || id != 2 {
		t.Fatalf("after the error: type=%d id=%d err=%v", ty, id, err)
	}
}

// TestUnknownMessageTypeGetsError: a request type a daemon has no row
// for — one no daemon knows, a response sent as a request, the other
// daemon's request, a stream open at the metadata server — is answered
// with a TError under its own id, and the connection goes on serving.
func TestUnknownMessageTypeGetsError(t *testing.T) {
	_, srv, nodes := testCluster(t, 1, nil)
	open := proto.StreamOpenReq{FileID: 1, Size: 1, ChunkSize: proto.MinStreamChunk}.Encode()
	past := proto.TAccessResp + 1 // untraced, and past the last type
	for _, d := range []struct {
		name        string
		addr        string
		valid, resp proto.Type
		unknown     []proto.Type
	}{
		{"server", srv.Addr(), proto.TListReq, proto.TListResp,
			[]proto.Type{past, proto.TLookupResp, proto.TNodeReadReq, proto.TStreamReadReq}},
		{"node", nodes[0].Addr(), proto.TNodeStatsReq, proto.TNodeStatsResp,
			[]proto.Type{past, proto.TNodeReadResp, proto.TLookupReq}},
	} {
		for i, ty := range d.unknown {
			conn := dialFramed(t, d.addr)
			var payload []byte
			if ty == proto.TStreamReadReq {
				payload = open
			}
			id := uint32(10 + i)
			if err := proto.WriteFrameID(conn, ty, id, payload); err != nil {
				t.Fatal(err)
			}
			if got, gotID, _, err := proto.ReadFrameID(conn); err != nil || got != proto.TError || gotID != id {
				t.Errorf("%s answered type %d with type %d id %d (err %v), want TError id %d", d.name, ty, got, gotID, err, id)
				continue
			}
			if err := proto.WriteFrameID(conn, d.valid, id+100, nil); err != nil {
				t.Fatal(err)
			}
			if got, gotID, _, err := proto.ReadFrameID(conn); err != nil || got != d.resp || gotID != id+100 {
				t.Errorf("%s after type %d: type %d id %d (err %v), want %d id %d", d.name, ty, got, gotID, err, d.resp, id+100)
			}
		}
	}
}

// TestConnectionWithoutPrefaceIsClosed: the serial pre-mux framing is
// gone; a peer that does not open with the preface gets a hangup, not an
// attempt to parse its bytes.
func TestConnectionWithoutPrefaceIsClosed(t *testing.T) {
	_, srv, nodes := testCluster(t, 1, nil)
	for _, addr := range []string{srv.Addr(), nodes[0].Addr()} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// What a v1 peer would have sent: [u32 length][u8 type], no preface.
		if _, err := conn.Write([]byte{0, 0, 0, 1, byte(proto.TListReq)}); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := conn.Read(make([]byte, 16)); err == nil {
			t.Fatalf("%s answered %d bytes to a connection with no preface", addr, n)
		}
	}
}

func TestNodeFailureSurfacesAsError(t *testing.T) {
	cl, _, nodes := testCluster(t, 2, nil)
	if err := cl.Create("f0", []byte("x")); err != nil { // node 0
		t.Fatal(err)
	}
	if err := cl.Create("f1", []byte("y")); err != nil { // node 1
		t.Fatal(err)
	}
	nodes[0].Close()
	// Reads against the dead node fail cleanly...
	if _, _, err := cl.Read("f0"); err == nil {
		t.Fatal("read from dead node succeeded")
	}
	// ...while the healthy node keeps serving.
	if _, _, err := cl.Read("f1"); err != nil {
		t.Fatalf("healthy node read failed: %v", err)
	}
}

func TestServerValidation(t *testing.T) {
	if _, err := StartServer(ServerConfig{Addr: "127.0.0.1:0"}); err == nil {
		t.Fatal("server with no nodes accepted")
	}
}

func TestNodeValidation(t *testing.T) {
	bad := []NodeConfig{
		{Addr: "127.0.0.1:0", DataDisks: 1, DataModel: disk.ModelType1, BufferModel: disk.ModelType1},                                     // no root
		{Addr: "127.0.0.1:0", RootDir: "x", DataDisks: 0, DataModel: disk.ModelType1, BufferModel: disk.ModelType1},                       // no disks
		{Addr: "127.0.0.1:0", RootDir: "x", DataDisks: 1, DataModel: disk.Model{}, BufferModel: disk.ModelType1},                          // bad model
		{Addr: "127.0.0.1:0", RootDir: "x", DataDisks: 1, DataModel: disk.ModelType1, BufferModel: disk.ModelType1, IdleThresholdSec: -1}, // bad threshold
	}
	for i, cfg := range bad {
		if _, err := StartNode(cfg); err == nil {
			t.Errorf("case %d: invalid node config accepted", i)
		}
	}
}

func TestClockScaling(t *testing.T) {
	c := NewClock(100)
	if got := c.RealDuration(0.1); got != time.Millisecond {
		t.Fatalf("0.1 model sec takes %v real, want 1ms", got)
	}
	start := c.Now()
	time.Sleep(c.RealDuration(0.1))
	// The upper bound leaves 9 ms real for a late wake-up, and catches a
	// clock that runs the model at any other rate by a factor of 10.
	if elapsed := float64(c.Now() - start); elapsed < 0.1 || elapsed > 1 {
		t.Fatalf("model elapsed %g, want in [0.1, 1]", elapsed)
	}
	// Zero scale defaults to 1.
	if s := NewClock(0).Scale(); s != 1 {
		t.Fatalf("zero scale gives %g, want 1", s)
	}
}

// Thin indirections so the flush test reads naturally.
func osReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names, nil
}

func osReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func TestStripedStorageRoundTrip(t *testing.T) {
	cl, _, nodes := testCluster(t, 1, func(c *NodeConfig) { c.StripeChunkBytes = 1000 })
	content := bytes.Repeat([]byte("0123456789"), 350) // 3500 B = 4 chunks over 2 disks
	if err := cl.Create("striped.dat", content); err != nil {
		t.Fatal(err)
	}
	got, fromBuffer, err := cl.Read("striped.dat")
	if err != nil {
		t.Fatal(err)
	}
	if fromBuffer {
		t.Fatal("striped read claimed buffer")
	}
	if !bytes.Equal(got, content) {
		t.Fatalf("striped content mismatch: %d vs %d bytes", len(got), len(content))
	}
	// Both data disks must have serviced chunk requests.
	stats := nodes[0].statsResp()
	servicedDisks := 0
	for _, ds := range stats.Disks {
		if ds.Name != "buffer" && ds.Requests > 0 {
			servicedDisks++
		}
	}
	if servicedDisks != 2 {
		t.Fatalf("chunks landed on %d disks, want 2", servicedDisks)
	}
}

func TestStripedPrefetchAndDelete(t *testing.T) {
	cl, _, _ := testCluster(t, 1, func(c *NodeConfig) { c.StripeChunkBytes = 1000 })
	content := bytes.Repeat([]byte("ab"), 2500) // 5000 B = 5 chunks
	if err := cl.Create("s.dat", content); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Read("s.dat"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Prefetch(1); err != nil {
		t.Fatal(err)
	}
	got, fromBuffer, err := cl.Read("s.dat")
	if err != nil {
		t.Fatal(err)
	}
	if !fromBuffer || !bytes.Equal(got, content) {
		t.Fatalf("prefetched striped read: buffer=%v len=%d", fromBuffer, len(got))
	}
	if err := cl.Delete("s.dat"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Read("s.dat"); err == nil {
		t.Fatal("deleted striped file still readable")
	}
}

func TestStripedWriteBufferFlush(t *testing.T) {
	cl, _, nodes := testCluster(t, 1, func(c *NodeConfig) {
		c.StripeChunkBytes = 1000
		c.WriteBuffer = true
	})
	content := bytes.Repeat([]byte("x"), 2500)
	if err := cl.Create("w.dat", content); err != nil {
		t.Fatal(err)
	}
	// Force the flush and verify the striped result survives a reread
	// from the data disks.
	nodes[0].flushAll()
	got, fromBuffer, err := cl.Read("w.dat")
	if err != nil {
		t.Fatal(err)
	}
	if fromBuffer {
		t.Fatal("flushed file still served from buffer")
	}
	if !bytes.Equal(got, content) {
		t.Fatal("flushed striped content mismatch")
	}
}

func TestSmallFilesNotStriped(t *testing.T) {
	cl, _, nodes := testCluster(t, 1, func(c *NodeConfig) { c.StripeChunkBytes = 10000 })
	if err := cl.Create("small.dat", []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Read("small.dat"); err != nil {
		t.Fatal(err)
	}
	stats := nodes[0].statsResp()
	serviced := 0
	for _, ds := range stats.Disks {
		if ds.Name != "buffer" && ds.Requests > 0 {
			serviced++
		}
	}
	if serviced != 1 {
		t.Fatalf("small file touched %d data disks, want 1", serviced)
	}
}

func TestNodeRestartKeepsFiles(t *testing.T) {
	state := t.TempDir() + "/server-state.json"
	l := startLocal(t, LocalConfig{Nodes: 1, Servers: 1,
		Node:   func(_ int, c *NodeConfig) { c.InjectLatency = true },
		Server: func(_ int, c *ServerConfig) { c.StateFile = state },
	})
	cl := dialLocal(t, l, ClientConfig{})
	if err := cl.Create("persist.dat", []byte("survives restarts")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := cl.Read("persist.dat"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Prefetch(1); err != nil {
		t.Fatal(err)
	}

	// Full restart of node and server (the node comes back on the same
	// address, so the persisted server state resolves).
	cl.Close()
	l.Servers[0].Close()
	if err := l.RestartNode(0); err != nil {
		t.Fatal(err)
	}
	if err := l.RestartServer(0); err != nil {
		t.Fatal(err)
	}
	cl2 := dialLocal(t, l, ClientConfig{})

	got, fromBuffer, err := cl2.Read("persist.dat")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "survives restarts" {
		t.Fatalf("restarted read = %q", got)
	}
	if !fromBuffer {
		t.Fatal("prefetch flag lost across node restart")
	}
	// The namespace survived too.
	names, err := cl2.List()
	if err != nil || len(names) != 1 || names[0] != "persist.dat" {
		t.Fatalf("List after restart = %v, %v", names, err)
	}
	// New creates continue from the persisted id/node cursors.
	if err := cl2.Create("after-restart.dat", []byte("x")); err != nil {
		t.Fatal(err)
	}
}

func TestNodeRejectsCorruptManifest(t *testing.T) {
	quiet := log.New(io.Discard, "", 0)
	root := t.TempDir()
	if err := os.WriteFile(root+"/manifest.json", []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := StartNode(NodeConfig{
		Addr: "127.0.0.1:0", RootDir: root, DataDisks: 1,
		DataModel: disk.ModelType1, BufferModel: disk.ModelType1, Logger: quiet,
	})
	if err == nil {
		t.Fatal("corrupt manifest accepted")
	}
}

func TestNodeRejectsManifestDiskOverflow(t *testing.T) {
	quiet := log.New(io.Discard, "", 0)
	root := t.TempDir()
	manifest := `{"version":2,"next_disk":0,"files":[{"id":0,"size":10,"disk":5}]}`
	if err := os.WriteFile(root+"/manifest.json", []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := StartNode(NodeConfig{
		Addr: "127.0.0.1:0", RootDir: root, DataDisks: 1,
		DataModel: disk.ModelType1, BufferModel: disk.ModelType1, Logger: quiet,
	})
	if err == nil {
		t.Fatal("manifest referencing missing disk accepted")
	}
}

func TestServerRejectsCorruptState(t *testing.T) {
	quiet := log.New(io.Discard, "", 0)
	state := t.TempDir() + "/state.json"
	if err := os.WriteFile(state, []byte("][,"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := StartServer(ServerConfig{
		Addr: "127.0.0.1:0", NodeAddrs: []string{"127.0.0.1:1"},
		StateFile: state, Logger: quiet,
	})
	if err == nil {
		t.Fatal("corrupt state accepted")
	}
}

func TestReadAtWholeFile(t *testing.T) {
	cl, _, _ := testCluster(t, 1, nil)
	content := []byte("0123456789abcdef")
	if err := cl.Create("r.dat", content); err != nil {
		t.Fatal(err)
	}
	got, fromBuffer, err := cl.ReadAt("r.dat", 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "456789" || fromBuffer {
		t.Fatalf("ReadAt = %q buffer=%v", got, fromBuffer)
	}
	// Zero-length range is legal and returns nothing.
	got, _, err = cl.ReadAt("r.dat", 3, 0)
	if err != nil || len(got) != 0 {
		t.Fatalf("zero-length ReadAt = %q, %v", got, err)
	}
}

func TestReadAtOutOfRange(t *testing.T) {
	cl, _, _ := testCluster(t, 1, nil)
	if err := cl.Create("r.dat", []byte("short")); err != nil {
		t.Fatal(err)
	}
	for _, rng := range [][2]int64{{-1, 2}, {0, 100}, {4, 2}, {0, -1}} {
		if _, _, err := cl.ReadAt("r.dat", rng[0], rng[1]); err == nil {
			t.Errorf("range [%d,+%d) accepted", rng[0], rng[1])
		}
	}
}

func TestReadAtStriped(t *testing.T) {
	cl, _, _ := testCluster(t, 1, func(c *NodeConfig) { c.StripeChunkBytes = 1000 })
	content := make([]byte, 3500)
	for i := range content {
		content[i] = byte(i % 251)
	}
	if err := cl.Create("s.dat", content); err != nil {
		t.Fatal(err)
	}
	// A range crossing two chunk boundaries.
	got, _, err := cl.ReadAt("s.dat", 900, 1200)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content[900:2100]) {
		t.Fatal("striped ranged read mismatch")
	}
	// A range entirely inside the last (short) chunk.
	got, _, err = cl.ReadAt("s.dat", 3200, 300)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content[3200:3500]) {
		t.Fatal("tail-chunk ranged read mismatch")
	}
}

func TestReadAtPrefetchedServesFromBuffer(t *testing.T) {
	cl, _, _ := testCluster(t, 1, nil)
	content := bytes.Repeat([]byte("xy"), 500)
	if err := cl.Create("h.dat", content); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Read("h.dat"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Prefetch(1); err != nil {
		t.Fatal(err)
	}
	got, fromBuffer, err := cl.ReadAt("h.dat", 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !fromBuffer {
		t.Fatal("prefetched ranged read missed the buffer")
	}
	if !bytes.Equal(got, content[10:30]) {
		t.Fatal("buffer ranged read mismatch")
	}
}

func TestHintsDrivePredictiveSleep(t *testing.T) {
	// Threshold is 60 model seconds (30 ms real at scale 2000): far too
	// long for the reactive timer to fire within this test. With hints
	// predicting a long idle window, the disk must sleep almost
	// immediately after its last request anyway.
	cl, _, nodes := testCluster(t, 1, func(c *NodeConfig) { c.IdleThresholdSec = 60 })
	if err := cl.Create("hinted.dat", []byte("hot file")); err != nil {
		t.Fatal(err)
	}
	// Two spaced reads give the server a measurable inter-arrival.
	if _, _, err := cl.Read("hinted.dat"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // 40 model seconds apart
	if _, _, err := cl.Read("hinted.dat"); err != nil {
		t.Fatal(err)
	}
	// Prefetch pushes the hints (process-flow step 4) and moves the hot
	// file to the buffer disk, so its data disk faces an unbounded
	// predicted window.
	if _, err := cl.Prefetch(1); err != nil {
		t.Fatal(err)
	}
	// One more read to retrigger the power-management decision on the
	// data disk would defeat the point (it hits the buffer); instead the
	// hint-driven timer armed at the last data-disk service fires on the
	// prediction... but that service predates the hints. Trigger one
	// buffer-missing access on the same disk via a second file.
	if err := cl.Create("cold.dat", []byte("cold")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Read("cold.dat"); err != nil {
		t.Fatal(err)
	}

	// cold.dat has no hint (single access), so its disk uses the 60 s
	// threshold; hinted.dat's disk should stand by long before that.
	deadline := time.Now().Add(1 * time.Second)
	for {
		stats, err := cl.Stats()
		if err != nil {
			t.Fatal(err)
		}
		standby := 0
		for _, ds := range stats.Disks {
			if ds.State == "standby" {
				standby++
			}
		}
		if standby >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("hinted disk never slept; stats: %+v", stats.Disks)
		}
		time.Sleep(2 * time.Millisecond)
	}
	_ = nodes
}

func TestHintsClearedByNonPositiveInterval(t *testing.T) {
	quiet := log.New(io.Discard, "", 0)
	node, err := StartNode(NodeConfig{
		Addr: "127.0.0.1:0", RootDir: t.TempDir(), DataDisks: 1,
		DataModel: disk.ModelType1, BufferModel: disk.ModelType1,
		TimeScale: 1000, Logger: quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if err := node.create(1, 8); err != nil {
		t.Fatal(err)
	}
	hint := func(id int64, sec float64) {
		node.handleHints(proto.NodeHintsReq{Hints: []proto.FileHint{{FileID: id, MeanIntervalSec: sec}}}, nil)
	}
	hint(1, 2)
	// Not a file of this node: dropped.
	hint(7, 2)
	if _, f, _ := node.files.get(1, 0); f.hint != 2000 { // scaled by TimeScale
		t.Fatalf("hint = %v; want 2000 (scaled)", f.hint)
	}
	if at, ok := node.files.nextWanted(0, 50); !ok || at != 2050 || len(node.files.wanted[0]) != 1 {
		t.Fatalf("disk 0 next wanted at %v (hinted=%v), index %v; want 2050 from file 1 alone", at, ok, node.files.wanted[0])
	}
	hint(1, 0)
	if _, f, _ := node.files.get(1, 0); f.hint != 0 || len(node.files.wanted[0]) != 0 {
		t.Fatal("zero-interval hint not cleared")
	}
}

func TestNodeBufferCapacityLimitsPrefetch(t *testing.T) {
	cl, _, _ := testCluster(t, 1, func(c *NodeConfig) { c.BufferCapacityBytes = 1500 })
	big := bytes.Repeat([]byte("b"), 1000)
	if err := cl.Create("a.dat", big); err != nil {
		t.Fatal(err)
	}
	if err := cl.Create("b.dat", big); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := cl.Read("a.dat"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := cl.Read("b.dat"); err != nil {
			t.Fatal(err)
		}
	}
	n, err := cl.Prefetch(2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("prefetched %d files, want 1 (capacity 1500 fits one 1000 B file)", n)
	}
}

func TestNodeBufferCapacityLimitsWriteBuffer(t *testing.T) {
	cl, _, _ := testCluster(t, 1, func(c *NodeConfig) {
		c.WriteBuffer = true
		c.BufferCapacityBytes = 100
	})
	if err := cl.Create("w.dat", []byte("x")); err != nil { // 1 B, buffered
		t.Fatal(err)
	}
	// A write that exceeds the remaining capacity goes straight to the
	// data disk instead.
	buffered, err := cl.Write("w.dat", bytes.Repeat([]byte("y"), 200))
	if err != nil {
		t.Fatal(err)
	}
	if buffered {
		t.Fatal("oversized write absorbed by a full buffer")
	}
	got, _, err := cl.Read("w.dat")
	if err != nil || len(got) != 200 {
		t.Fatalf("read after write-through: %d bytes, %v", len(got), err)
	}
}

func TestDirectWriteInvalidatesPrefetchedCopy(t *testing.T) {
	// Without the write buffer, a write to a prefetched file must not
	// leave the stale buffer replica serving reads.
	cl, _, _ := testCluster(t, 1, nil)
	if err := cl.Create("p.dat", []byte("old-content")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Read("p.dat"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Prefetch(1); err != nil {
		t.Fatal(err)
	}
	if _, fromBuffer, _ := cl.Read("p.dat"); !fromBuffer {
		t.Fatal("precondition: file not prefetched")
	}
	if _, err := cl.Write("p.dat", []byte("new-content")); err != nil {
		t.Fatal(err)
	}
	got, fromBuffer, err := cl.Read("p.dat")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new-content" {
		t.Fatalf("read %q after overwrite", got)
	}
	if fromBuffer {
		t.Fatal("stale buffer copy still serving after direct write")
	}
}

func TestPrefetchOfDirtyFileFlushesFirst(t *testing.T) {
	cl, _, _ := testCluster(t, 1, func(c *NodeConfig) { c.WriteBuffer = true })
	content := bytes.Repeat([]byte("d"), 800)
	if err := cl.Create("dirty.dat", content); err != nil { // buffered, dirty
		t.Fatal(err)
	}
	if _, _, err := cl.Read("dirty.dat"); err != nil {
		t.Fatal(err)
	}
	n, err := cl.Prefetch(1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("prefetched %d, want 1 (dirty file must flush then prefetch)", n)
	}
	got, fromBuffer, err := cl.Read("dirty.dat")
	if err != nil {
		t.Fatal(err)
	}
	if !fromBuffer || !bytes.Equal(got, content) {
		t.Fatalf("post-prefetch read: buffer=%v, %d bytes", fromBuffer, len(got))
	}
}

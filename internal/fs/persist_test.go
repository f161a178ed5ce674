package fs

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"maps"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"eevfs/internal/disk"
	"eevfs/internal/metadata"
	"eevfs/internal/proto"
	"eevfs/internal/telemetry"
	"eevfs/internal/wal"
)

var quietLog = log.New(io.Discard, "", 0)

// persistNodeConfig is a node with the write buffer on and every delay
// off: the persistence tests exercise metadata, not the disk model.
func persistNodeConfig(root, addr string) NodeConfig {
	return NodeConfig{
		Addr: addr, RootDir: root, DataDisks: 2,
		DataModel: disk.ModelType1, BufferModel: disk.ModelType1,
		TimeScale: 2000, WriteBuffer: true, Logger: quietLog,
	}
}

// crashCase is what a crash left on disk: a checkpoint (nil: none), a
// log, and the state recovery must arrive at.
type crashCase struct {
	what       string
	checkpoint []byte
	log        []byte
	want       int // index into the acked states
}

// crashCases damages log in every way a crash or a bad sector can: a cut
// at every byte (so every record boundary and every mid-record position)
// and one flipped bit per byte. ends[i] is the log's length after acked
// mutation i (ends[0]: right after the checkpoint); a record survives iff
// it lies wholly before the damage, and nothing after the damage may.
func crashCases(checkpoint, log []byte, ends []int) []crashCase {
	survivors := func(damageAt int) int {
		n := 0
		for n+1 < len(ends) && ends[n+1] <= damageAt {
			n++
		}
		return n
	}
	var cases []crashCase
	for cut := 0; cut <= len(log); cut++ {
		cases = append(cases, crashCase{fmt.Sprintf("log cut at byte %d of %d", cut, len(log)),
			checkpoint, log[:cut], survivors(cut)})
	}
	for i := range log {
		damaged := bytes.Clone(log)
		damaged[i] ^= 1 << (i % 8)
		cases = append(cases, crashCase{fmt.Sprintf("bit %d of log byte %d flipped", i%8, i),
			checkpoint, damaged, survivors(i)})
	}
	return cases
}

// launderCRC is the planted bug: it rewrites every frame's checksum to
// match whatever payload the frame now holds — on disk, exactly what a
// recovery that skips the CRC check would accept. The oracles below must
// fail on a log damaged and then laundered, or they prove nothing.
func launderCRC(log []byte) []byte {
	var out []byte
	for off := 0; off < len(log); {
		n := int(binary.BigEndian.Uint32(log[off:]))
		out = wal.AppendFrame(out, log[off+8:off+8+n])
		off += 8 + n
	}
	return out
}

// violations counts the cases whose recovery is not exactly the acked
// state the damage should leave, logging the first few.
func violations[S any](t *testing.T, cases []crashCase, states []S, recovery func(*testing.T, crashCase) (S, bool)) (n int) {
	t.Helper()
	for _, c := range cases {
		got, ok := recovery(t, c)
		if !ok || !reflect.DeepEqual(got, states[c.want]) {
			if n++; n <= 3 {
				t.Logf("%s: started=%v, recovered %+v, want the state after ack %d: %+v", c.what, ok, got, c.want, states[c.want])
			}
		}
	}
	return n
}

// checkpoint forces the checkpoint a full log would trigger.
func (s *Server) checkpoint() {
	s.log.mu.Lock()
	defer s.log.mu.Unlock()
	s.log.checkpointLocked()
}

func (n *Node) checkpoint() {
	n.persistMu.Lock()
	defer n.persistMu.Unlock()
	n.checkpointLocked()
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return b
}

func mustWrite(t *testing.T, path string, b []byte) {
	t.Helper()
	if b == nil {
		return
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// serverCrashHistory drives a scripted mutation sequence through a
// standalone persisted server and returns what a kill -9 after the last
// ack leaves on disk, the log length after every ack since the mid-run
// checkpoint, and the file table after each of those acks.
func serverCrashHistory(t *testing.T) (checkpoint, oplog []byte, ends []int, states [][]metadata.FileInfo) {
	t.Helper()
	dir := t.TempDir()
	node, err := StartNode(persistNodeConfig(filepath.Join(dir, "n"), "127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	state := filepath.Join(dir, "state")
	srv, err := StartServer(ServerConfig{
		Addr: "127.0.0.1:0", NodeAddrs: []string{node.Addr()}, StateFile: state,
		Logger: quietLog, Health: HealthConfig{ProbeInterval: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	script := []func() error{
		func() error { return cl.Create("a", []byte("aaaa")) },
		func() error { return cl.Create("b", []byte("bb")) },
		func() error { return cl.Delete("a") },
		func() error { return cl.Create("c", []byte("cccccc")) },
		nil, // checkpoint here: recovery = checkpoint + the log of what follows
		func() error { return cl.Create("a", []byte("again")) },
		func() error { return cl.Delete("b") },
		func() error { return cl.Create("d", []byte("d")) },
		func() error { return cl.Delete("c") },
		func() error { return cl.Create("e", []byte("eeee")) },
	}
	for _, op := range script {
		if op == nil {
			srv.checkpoint()
			ends, states = []int{0}, [][]metadata.FileInfo{srv.Files()}
			continue
		}
		if err := op(); err != nil {
			t.Fatal(err)
		}
		if states != nil {
			ends = append(ends, int(srv.log.wal.Size()))
			states = append(states, srv.Files())
		}
	}
	return mustRead(t, state), mustRead(t, state+".wal"), ends, states
}

// recoverServer restarts a server on what a crash left and returns its
// file table; ok is false when it refused to start.
func recoverServer(t *testing.T, c crashCase) (files []metadata.FileInfo, ok bool) {
	t.Helper()
	state := filepath.Join(t.TempDir(), "state")
	mustWrite(t, state, c.checkpoint)
	mustWrite(t, state+".wal", c.log)
	srv, err := StartServer(ServerConfig{
		Addr: "127.0.0.1:0", NodeAddrs: []string{"127.0.0.1:1"}, StateFile: state,
		Logger: quietLog, Health: HealthConfig{ProbeInterval: -1},
	})
	if err != nil {
		return nil, false
	}
	defer srv.Close()
	return srv.Files(), true
}

func TestServerCrashPrefixOracle(t *testing.T) {
	checkpoint, oplog, ends, states := serverCrashHistory(t)
	if checkpoint == nil || len(ends) != 6 || ends[5] != len(oplog) {
		t.Fatalf("history: checkpoint %d bytes, log %d bytes, ends %v", len(checkpoint), len(oplog), ends)
	}
	cases := crashCases(checkpoint, oplog, ends)
	if testing.Short() {
		cases = cases[:len(cases)/8]
	}
	if n := violations(t, cases, states, recoverServer); n != 0 {
		t.Fatalf("%d of %d crash recoveries were not the longest acked prefix", n, len(cases))
	}

	// The window between installing a checkpoint and emptying the log:
	// the log still holds ops the checkpoint reflects, and replays clean.
	state := filepath.Join(t.TempDir(), "state")
	mustWrite(t, state, checkpoint)
	mustWrite(t, state+".wal", oplog)
	srv, err := StartServer(ServerConfig{
		Addr: "127.0.0.1:0", NodeAddrs: []string{"127.0.0.1:1"}, StateFile: state,
		Logger: quietLog, Health: HealthConfig{ProbeInterval: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close() // a clean close checkpoints
	newer := mustRead(t, state)
	if got, ok := recoverServer(t, crashCase{checkpoint: newer, log: oplog}); !ok || !reflect.DeepEqual(got, states[5]) {
		t.Fatalf("stale log over a newer checkpoint: started=%v, recovered %v, want %v", ok, got, states[5])
	}

	// Planted bug: flip one bit of the file name inside the last record
	// and launder the checksums. A recovery that trusted the frame
	// installs a name no client ever created, and the oracle must say so.
	damaged := bytes.Clone(oplog)
	damaged[ends[4]+8+8+4+4] ^= 0x02 // frame header, seq, kind, name length, then the name
	planted := []crashCase{{"laundered name flip", checkpoint, launderCRC(damaged), 4}}
	if violations(t, planted, states, recoverServer) == 0 {
		t.Fatal("oracle passed a recovery of a corrupt record whose CRC check was defeated")
	}
}

// nodeState is everything a node persists, and — when a node or a
// history fills it in — each file's content as read back.
type nodeState struct {
	Files    []metadata.NodeEntry
	Dirty    map[int]int64
	Buffer   map[int]segLoc
	NextDisk int
	Read     map[int]string
}

func (t *fileTable) persistedState() nodeState {
	m := t.manifest()
	st := nodeState{Files: m.Files, Dirty: map[int]int64{}, Buffer: map[int]segLoc{}, NextDisk: m.NextDisk}
	for _, d := range m.Dirty {
		st.Dirty[d.ID] = d.Size
	}
	for _, b := range m.Buffer {
		st.Buffer[b.ID] = segLoc{Seg: b.Segment, Off: b.Offset}
	}
	return st
}

// readState is persistedState plus every file that reads back, as read.
func (n *Node) readState() nodeState {
	st := n.files.persistedState()
	st.Read = map[int]string{}
	for _, e := range st.Files {
		if r, err := n.read(int64(e.ID)); err == nil {
			st.Read[e.ID] = string(r.Data)
		}
	}
	return st
}

// nodeHistory is what nodeCrashHistory's script left behind.
type nodeHistory struct {
	root       string // the node's RootDir, segments and extents, as a kill -9 leaves it
	checkpoint []byte // the mid-run manifest.json
	log        []byte // manifest.wal: everything since
	newer      []byte // the checkpoint a full log would have triggered after the last ack
	ends       []int  // the log's length after every ack since the checkpoint
	states     []nodeState
}

// recover restarts a node on the disks the history left, with c's
// checkpoint and log in place of its own, and returns what it recovered
// and read back; ok is false when it refused to start.
func (h nodeHistory) recover(t *testing.T, c crashCase) (st nodeState, ok bool) {
	t.Helper()
	root := t.TempDir()
	if err := os.CopyFS(root, os.DirFS(h.root)); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, filepath.Join(root, "manifest.json"), c.checkpoint)
	mustWrite(t, filepath.Join(root, "manifest.wal"), c.log)
	n, err := StartNode(persistNodeConfig(root, "127.0.0.1:0"))
	if err != nil {
		return nodeState{}, false
	}
	st = n.readState()
	// Close would flush the dirty set and checkpoint; the state was
	// captured first, and the directory is thrown away.
	n.Close()
	return st, true
}

// nodeCrashHistory drives a scripted mutation sequence through a node's
// handlers and returns what a kill -9 after the last ack leaves on disk.
// Each state carries the content every written file was last acked with,
// which a restart on it must read back. plant, when set, plants a bug in
// the live node.
func nodeCrashHistory(t *testing.T, plant func(*Node)) nodeHistory {
	t.Helper()
	live := t.TempDir()
	n, err := StartNode(persistNodeConfig(live, "127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if plant != nil {
		plant(n)
	}
	h := nodeHistory{root: t.TempDir()}
	acked := map[int]string{}
	create := func(id, size int64) func() error {
		return func() error { delete(acked, int(id)); return n.create(id, size) }
	}
	write := func(id int64, data string) func() error {
		return func() error {
			acked[int(id)] = data
			_, err := n.write(id, []byte(data))
			return err
		}
	}
	// Every step appends exactly once, so every record boundary is an
	// ack boundary.
	script := []func() error{
		create(0, 4), write(0, "zero"), create(1, 3), write(1, "one"),
		nil, // checkpoint
		create(2, 3),
		write(2, "two-but-longer"), // buffered: dirty + size change
		func() error { n.flushOne(1); return nil },
		func() error {
			if got := n.prefetch(1); got != 1 && plant == nil {
				return fmt.Errorf("prefetched %d of 1", got)
			}
			return nil
		},
		func() error { delete(acked, 0); return n.remove(0) },
		write(2, "2"),
		create(3, 9),
	}
	state := func() nodeState {
		st := n.files.persistedState()
		st.Read = maps.Clone(acked)
		return st
	}
	for _, op := range script {
		if op == nil {
			n.checkpoint()
			h.ends, h.states = []int{0}, []nodeState{state()}
			continue
		}
		if err := op(); err != nil {
			t.Fatal(err)
		}
		if h.states != nil {
			h.ends = append(h.ends, int(n.wal.Size()))
			h.states = append(h.states, state())
		}
	}
	if err := os.CopyFS(h.root, os.DirFS(live)); err != nil {
		t.Fatal(err)
	}
	h.checkpoint = mustRead(t, filepath.Join(h.root, "manifest.json"))
	h.log = mustRead(t, filepath.Join(h.root, "manifest.wal"))
	n.checkpoint()
	h.newer = mustRead(t, filepath.Join(live, "manifest.json"))
	return h
}

// TestNodeCrashPrefixOracle runs the crash-prefix battery over the log
// and the segments together: every restart must land on the longest acked
// prefix of the history and read back each file's last acked bytes from
// the segments and extents the kill left.
func TestNodeCrashPrefixOracle(t *testing.T) {
	h := nodeCrashHistory(t, nil)
	if h.checkpoint == nil || len(h.ends) != 8 || h.ends[7] != len(h.log) {
		t.Fatalf("history: checkpoint %d bytes, log %d bytes, ends %v", len(h.checkpoint), len(h.log), h.ends)
	}

	cases := crashCases(h.checkpoint, h.log, h.ends)
	if testing.Short() {
		cases = cases[:len(cases)/8]
	}
	if bad := violations(t, cases, h.states, h.recover); bad != 0 {
		t.Fatalf("%d of %d crash recoveries were not the longest acked prefix", bad, len(cases))
	}

	// Crash between checkpoint rename and log truncate: post-state
	// records replayed over a checkpoint that already holds them.
	last := h.states[len(h.states)-1]
	if got, ok := h.recover(t, crashCase{checkpoint: h.newer, log: h.log}); !ok || !reflect.DeepEqual(got, last) {
		t.Fatalf("stale log over a newer checkpoint: started=%v, recovered %+v, want %+v", ok, got, last)
	}

	// Planted bug: one bit of the last record's size field, checksums
	// laundered. The record still decodes; the state is one no prefix of
	// the history produces.
	damaged := bytes.Clone(h.log)
	damaged[h.ends[len(h.ends)-2]+8+8+1+7] ^= 0x40 // frame header, id, present flag, then the size's low byte
	planted := []crashCase{{"laundered size flip", h.checkpoint, launderCRC(damaged), len(h.states) - 2}}
	if violations(t, planted, h.states, h.recover) == 0 {
		t.Fatal("oracle passed a recovery of a corrupt record whose CRC check was defeated")
	}

	// Planted bug: a record that reached the log before its copy's bytes
	// reached the segment — a crash between the two leaves the segment
	// cut at the copy the last write placed.
	cut := nodeHistory{root: t.TempDir(), states: h.states}
	if err := os.CopyFS(cut.root, os.DirFS(h.root)); err != nil {
		t.Fatal(err)
	}
	two := last.Buffer[2]
	if err := os.Truncate(filepath.Join(cut.root, "buffer", segmentName(two.Seg)), two.Off); err != nil {
		t.Fatal(err)
	}
	whole := []crashCase{{"record before its bytes", h.checkpoint, h.log, len(h.states) - 1}}
	if violations(t, whole, h.states, cut.recover) == 0 {
		t.Fatal("oracle passed a recovery whose last write's bytes never reached the segment")
	}

	// Planted bugs in the live node, which the log faithfully records, so
	// what the node served from and what a restart recovers part ways.
	// Apply drops the dirty bit: that only shows if live mutations install
	// their state through that same apply. Land records each copy one byte
	// before where it was written: the recovered state is the history's,
	// and only reading the bytes back shows it.
	for what, plant := range map[string]func(*Node){
		"a live table whose apply ignores the dirty bit": func(n *Node) { n.files.plantDropDirty = true },
		"a node that records copies one byte early":      func(n *Node) { n.plantEarlyOffset = true },
	} {
		p := nodeCrashHistory(t, plant)
		if violations(t, crashCases(p.checkpoint, p.log, p.ends)[:len(p.log)+1], p.states, p.recover) == 0 {
			t.Errorf("oracle passed %s", what)
		}
	}
}

// TestSegmentCrashBeforeLand: a copy appended to the log whose record
// never made it — a buffered write killed between its pwrite and its
// landing — changes nothing a restart shows: the files read back their
// last acked bytes. And a segment no record names does not survive a
// restart.
func TestSegmentCrashBeforeLand(t *testing.T) {
	cfg := persistNodeConfig(t.TempDir(), "127.0.0.1:0")
	n, err := StartNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for id, data := range []string{"zero", "one"} {
		if err := n.create(int64(id), int64(len(data))); err != nil {
			t.Fatal(err)
		}
		if _, err := n.write(int64(id), []byte(data)); err != nil {
			t.Fatal(err)
		}
	}
	acked := n.readState()
	w, err := n.sink(1, 7, reqAttrib{})
	if err != nil || !w.buffered {
		t.Fatalf("buffered=%v err=%v", w != nil && w.buffered, err)
	}
	if err := w.write([]byte("torn!!!")); err != nil {
		t.Fatal(err)
	}
	crash := func() string {
		t.Helper()
		root := t.TempDir()
		if err := os.CopyFS(root, os.DirFS(cfg.RootDir)); err != nil {
			t.Fatal(err)
		}
		return root
	}
	root := crash()
	w.abandon()

	again, err := StartNode(persistNodeConfig(root, "127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	if got := again.readState(); !reflect.DeepEqual(got, acked) {
		t.Fatalf("after a crash mid-write the node recovered %+v, want %+v", got, acked)
	}
	checkStorage(t, again)
	again.Close()

	// Every file gone: the segment that held them has nothing left to name.
	for id := int64(0); id < 2; id++ {
		if err := n.remove(id); err != nil {
			t.Fatal(err)
		}
	}
	if again, err = StartNode(persistNodeConfig(crash(), "127.0.0.1:0")); err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if left, err := os.ReadDir(again.buffer.dir); err != nil || len(left) != 0 {
		t.Fatalf("after a restart with no file in the buffer, buffer/ holds %v (err=%v)", left, err)
	}
}

// TestKill9MidBurst is the durability contract end to end: real
// processes, a real SIGKILL in the middle of a write burst, a restart
// from checkpoint + log, and a byte-for-byte read of every acked write.
// The child is this test binary re-executed (see TestKill9Child).
func TestKill9MidBurst(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a child process")
	}
	dir := t.TempDir()
	// Fixed addresses the restarted daemons can come back on.
	addrs := make([]string, 2)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	nodeAddr, srvAddr := addrs[0], addrs[1]

	child := exec.Command(os.Args[0], "-test.run=^TestKill9Child$")
	child.Env = append(os.Environ(), "EEVFS_KILL9_DIR="+dir, "EEVFS_KILL9_NODE="+nodeAddr, "EEVFS_KILL9_SERVER="+srvAddr)
	child.Stderr = os.Stderr
	out, err := child.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	defer child.Process.Kill()
	ready := make(chan bool, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if sc.Text() == "ready" {
				ready <- true
				break
			}
		}
		io.Copy(io.Discard, out)
	}()
	select {
	case <-ready:
	case <-time.After(30 * time.Second):
		t.Fatal("child daemons never came up")
	}

	// The burst: every client owns its names, so it knows each file's
	// last acked content; an op in flight at the kill makes its file's
	// outcome open.
	type fileLog struct {
		acked    []byte // nil: absent (never created, or delete acked)
		inFlight bool
	}
	const clients, filesPerClient = 8, 12
	logs := make([]map[string]*fileLog, clients)
	cfg := ClientConfig{Transport: proto.TransportConfig{
		DialTimeout: 250 * time.Millisecond, RTTimeout: 2 * time.Second, Retries: -1,
	}}
	var wg sync.WaitGroup
	var acked sync.WaitGroup // released once every client has some acked history
	acked.Add(clients)
	for c := 0; c < clients; c++ {
		logs[c] = make(map[string]*fileLog)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := DialCluster([]string{srvAddr}, cfg)
			if err != nil {
				t.Error(err)
				acked.Done()
				return
			}
			defer cl.Close()
			for op := 0; ; op++ {
				if op == 3*filesPerClient {
					acked.Done()
				}
				name := fmt.Sprintf("c%d-f%d", c, op%filesPerClient)
				fl := logs[c][name]
				if fl == nil {
					fl = &fileLog{}
					logs[c][name] = fl
				}
				data := bytes.Repeat([]byte{byte('a' + op%26)}, 100+(op*37)%3000)
				fl.inFlight = true
				switch {
				case fl.acked == nil:
					err = cl.Create(name, data)
				case op%5 == 4:
					err, data = cl.Delete(name), nil
				default:
					_, err = cl.Write(name, data)
				}
				if err != nil {
					if op < 3*filesPerClient {
						t.Errorf("client %d op %d failed before the kill: %v", c, op, err)
						acked.Done()
					}
					return // the kill (or its aftermath)
				}
				fl.acked, fl.inFlight = data, false
			}
		}(c)
	}
	acked.Wait()
	if err := child.Process.Kill(); err != nil { // SIGKILL, mid-burst
		t.Fatal(err)
	}
	child.Wait()
	wg.Wait()
	if t.Failed() {
		return
	}

	node, err := StartNode(persistNodeConfig(filepath.Join(dir, "n"), nodeAddr))
	if err != nil {
		t.Fatalf("node restart after kill -9: %v", err)
	}
	defer node.Close()
	srv, err := StartServer(ServerConfig{
		Addr: srvAddr, NodeAddrs: []string{nodeAddr}, StateFile: filepath.Join(dir, "state"),
		Logger: quietLog, Health: HealthConfig{ProbeInterval: -1},
	})
	if err != nil {
		t.Fatalf("server restart after kill -9: %v", err)
	}
	defer srv.Close()
	cl, err := Dial(srvAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	checked, open := 0, 0
	for c := range logs {
		for name, fl := range logs[c] {
			if fl.inFlight {
				open++
				continue
			}
			checked++
			got, _, err := cl.Read(name)
			switch {
			case fl.acked == nil && err == nil:
				t.Errorf("%s: delete was acked, yet the file reads back %d bytes", name, len(got))
			case fl.acked != nil && err != nil:
				t.Errorf("%s: acked write lost: %v", name, err)
			case fl.acked != nil && !bytes.Equal(got, fl.acked):
				t.Errorf("%s: read %d bytes that are not the %d acked", name, len(got), len(fl.acked))
			}
		}
	}
	t.Logf("%d files verified byte for byte, %d had an op in flight at the kill", checked, open)
	if checked < clients*filesPerClient-clients {
		t.Fatalf("only %d files had an acked history to verify", checked)
	}
}

// TestKill9Child is TestKill9MidBurst's victim: a node and a persisted
// server that run until killed. It does nothing in a normal test run.
func TestKill9Child(t *testing.T) {
	dir := os.Getenv("EEVFS_KILL9_DIR")
	if dir == "" {
		return
	}
	node, err := StartNode(persistNodeConfig(filepath.Join(dir, "n"), os.Getenv("EEVFS_KILL9_NODE")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := StartServer(ServerConfig{
		Addr: os.Getenv("EEVFS_KILL9_SERVER"), NodeAddrs: []string{node.Addr()},
		StateFile: filepath.Join(dir, "state"), Logger: quietLog,
	}); err != nil {
		t.Fatal(err)
	}
	fmt.Println("ready")
	select {} // until SIGKILL
}

// TestGroupBootsWithoutProbeStall: a starting member probes its peers
// for a running primary, and a peer whose listener is bound but not yet
// serving used to cost the full 10 s round-trip timeout.
func TestGroupBootsWithoutProbeStall(t *testing.T) {
	start := time.Now()
	// Default transport: the production 5 s dial / 10 s round trip.
	l := startLocal(t, LocalConfig{Nodes: 1, Servers: 3})
	cl := dialLocal(t, l, ClientConfig{})
	if err := cl.Create("first", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("3-member group on pre-bound listeners took %v to serve its first create, want < 2 s", took)
	}
}

// TestGroupCommitBatches: mutations that arrive while a fan-out is in
// flight ride the next one together, and every member's log — primary
// and followers — recovers the same namespace.
func TestGroupCommitBatches(t *testing.T) {
	reg := telemetry.NewRegistry()
	dir := t.TempDir()
	g := startGroup(t, 3, 1, func(i int, c *ServerConfig) {
		c.StateFile = filepath.Join(dir, fmt.Sprintf("s%d", i))
		if i == 0 {
			c.Metrics = reg
		}
	})
	cl, err := DialCluster(g.Addrs, ClientConfig{Transport: chaosTransport()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const writers, each = 32, 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := cl.Create(fmt.Sprintf("w%d-%d", w, i), []byte("x")); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	h := reg.Histogram("server.repl.batch", nil)
	if h.Count() == 0 || h.Sum() < writers*each || h.Sum() <= float64(h.Count()) {
		t.Fatalf("server.repl.batch: %v ops in %d appends; want every op counted and a mean above 1", h.Sum(), h.Count())
	}
	t.Logf("%v ops replicated in %d appends (mean batch %.1f)", h.Sum(), h.Count(), h.Sum()/float64(h.Count()))
	if reg.Counter("persist.log.bytes").Value() == 0 {
		t.Fatal("persist.log.bytes never moved")
	}
	if err := g.Converged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	want := g.Servers[0].Files()
	for i := range g.Servers {
		// What each member wrote — no clean close — must recover alone.
		state := g.Servers[i].cfg.StateFile
		got, ok := recoverServer(t, crashCase{checkpoint: mustRead(t, state), log: mustRead(t, state+".wal")})
		if !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("member %d recovers %d files from its own log (started=%v), the group holds %d", i, len(got), ok, len(want))
		}
	}
}

// TestLoadCheckpointRejectsExtraFrames: a checkpoint is exactly one
// frame; anything else is a foreign file.
func TestLoadCheckpointRejectsExtraFrames(t *testing.T) {
	one := wal.AppendFrame(nil, proto.RepSnapshot{Seq: 1}.Encode())
	for what, raw := range map[string][]byte{
		"two frames":     append(bytes.Clone(one), one...),
		"trailing bytes": append(bytes.Clone(one), 1, 2, 3),
		"empty":          {},
	} {
		if _, ok := recoverServer(t, crashCase{checkpoint: raw}); ok {
			t.Errorf("server started from a checkpoint with %s", what)
		}
	}
}

// TestParentStateFileCompat: the on-disk bytes did not move. testdata
// holds the StateFile + .wal pair the parent commit left after
// serverCrashHistory's script and a kill -9, and the checkpoint it wrote
// when it was restarted on them and closed. The same script must write
// the same two files, and the pair must load and re-checkpoint to the
// same third.
func TestParentStateFileCompat(t *testing.T) {
	checkpoint, oplog := mustRead(t, "testdata/parent.state"), mustRead(t, "testdata/parent.state.wal")
	gotCheckpoint, gotLog, _, states := serverCrashHistory(t)
	if !bytes.Equal(gotCheckpoint, checkpoint) || !bytes.Equal(gotLog, oplog) {
		t.Fatalf("the script wrote a %d-byte checkpoint and a %d-byte log that differ from the parent's (%d, %d)",
			len(gotCheckpoint), len(gotLog), len(checkpoint), len(oplog))
	}
	state := filepath.Join(t.TempDir(), "state")
	mustWrite(t, state, checkpoint)
	mustWrite(t, state+".wal", oplog)
	srv, err := StartServer(ServerConfig{
		Addr: "127.0.0.1:0", NodeAddrs: []string{"127.0.0.1:1"}, StateFile: state,
		Logger: quietLog, Health: HealthConfig{ProbeInterval: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.Files(); !reflect.DeepEqual(got, states[len(states)-1]) {
		t.Fatalf("loaded %v, want %v", got, states[len(states)-1])
	}
	srv.Close()
	if !bytes.Equal(mustRead(t, state), mustRead(t, "testdata/parent.state.reopened")) || len(mustRead(t, state+".wal")) != 0 {
		t.Fatal("re-checkpointing the parent's state did not write the parent's bytes")
	}
}

// TestNodeManifestGolden is TestParentStateFileCompat for the node:
// testdata holds the manifest.json + manifest.wal pair nodeCrashHistory's
// script leaves after a kill -9, and the manifest a node restarted on them
// writes when it is closed. The same script must write the same two files,
// and a restart on them must arrive at the same state and — flushing what
// the kill left unflushed — the same third.
func TestNodeManifestGolden(t *testing.T) {
	checkpoint, oplog := mustRead(t, "testdata/node.manifest.json"), mustRead(t, "testdata/node.manifest.wal")
	h := nodeCrashHistory(t, nil)
	if !bytes.Equal(h.checkpoint, checkpoint) || !bytes.Equal(h.log, oplog) {
		t.Fatalf("the script wrote a %d-byte checkpoint and a %d-byte log that differ from the golden ones (%d, %d)",
			len(h.checkpoint), len(h.log), len(checkpoint), len(oplog))
	}
	n, err := StartNode(persistNodeConfig(h.root, "127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := n.readState(), h.states[len(h.states)-1]; !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded %+v, want %+v", got, want)
	}
	n.Close()
	if !bytes.Equal(mustRead(t, n.manifestPath()), mustRead(t, "testdata/node.manifest.reopened.json")) ||
		len(mustRead(t, filepath.Join(h.root, "manifest.wal"))) != 0 {
		t.Fatal("closing a node restarted on the golden manifest did not write the golden bytes")
	}
}

// TestParentNodeManifestCompat: a node from before the log kept each
// buffer copy as a file, buffer/f<id>.dat. testdata holds the
// manifest.json + manifest.wal pair such a node left after
// nodeCrashHistory's script and a kill -9; its buffer and data files, and a
// staged write's debris, are written here. StartNode refuses the root with
// errPreLog and leaves it byte for byte as it was — its version 1
// checkpoint, and its log alone, whose replay ends with copies that have no
// place in the log. The same log followed by records that move those
// copies into the log — a root moved into it and killed before its next
// checkpoint — starts and reads back.
func TestParentNodeManifestCompat(t *testing.T) {
	checkpoint, oplog := mustRead(t, "testdata/parent.manifest.json"), mustRead(t, "testdata/parent.manifest.wal")
	parent := newFileTable(2, 0)
	if _, err := wal.Replay(oplog, parent.replay); err != nil {
		t.Fatal(err)
	}
	moved := bytes.Clone(oplog)
	for id, off := range map[int]int64{1: 0, 2: 3} {
		_, r := parent.record(id)
		r.Loc = segLoc{Seg: 1, Off: off}
		moved = wal.AppendFrame(moved, r.encode())
	}
	layout := func(files map[string]string) string {
		t.Helper()
		root := t.TempDir()
		for _, dir := range []string{"buffer", "data0", "data1"} {
			if err := os.Mkdir(filepath.Join(root, dir), 0o755); err != nil {
				t.Fatal(err)
			}
		}
		for path, data := range files {
			mustWrite(t, filepath.Join(root, path), []byte(data))
		}
		return root
	}
	tree := func(root string) map[string]string {
		t.Helper()
		out := map[string]string{}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				var b []byte
				b, err = os.ReadFile(path)
				out[path] = string(b)
			} else if err == nil {
				out[path] = "/"
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	parentFiles := map[string]string{
		"manifest.wal":                string(oplog),
		"buffer/f00000001.dat":        "one", // prefetched
		"buffer/f00000002.dat":        "2",   // unflushed
		"buffer/f00000002.dat.7.part": "torn",
		"data0/f00000000.dat.3.part":  "torn",
		"data1/f00000001.dat":         "one",
	}
	withCheckpoint := maps.Clone(parentFiles)
	withCheckpoint["manifest.json"] = string(checkpoint)
	for what, files := range map[string]map[string]string{"checkpoint and log": withCheckpoint, "log alone": parentFiles} {
		root := layout(files)
		was := tree(root)
		if n, err := StartNode(persistNodeConfig(root, "127.0.0.1:0")); !errors.Is(err, errPreLog) {
			if err == nil {
				n.Close()
			}
			t.Fatalf("%s: StartNode on a root from before the log returned %v, want %v", what, err, errPreLog)
		}
		if now := tree(root); !reflect.DeepEqual(now, was) {
			t.Fatalf("%s: refusing the root changed it from %v to %v", what, was, now)
		}
	}

	n, err := StartNode(persistNodeConfig(layout(map[string]string{
		"manifest.wal":        string(moved),
		"buffer/00000001.seg": "one2",
		"data1/f00000001.dat": "one",
	}), "127.0.0.1:0"))
	if err != nil {
		t.Fatalf("a log that moves every copy into the log was refused: %v", err)
	}
	defer n.Close()
	if got := n.readState().Read; !reflect.DeepEqual(got, map[int]string{1: "one", 2: "2"}) {
		t.Fatalf("the moved root reads back %v", got)
	}
}

// TestFailedAppendFailsTheWrite: a record is applied only once it is in the
// log. With every append to the log failing, a buffered write through the
// client fails; the file keeps its acked content, read from the segment
// that holds it — sealed, and named only by the record the failed write
// would have replaced, yet still on disk — and a restart on what the node
// left reads that content back. Once appends succeed again, so do writes.
func TestFailedAppendFailsTheWrite(t *testing.T) {
	cl, _, nodes := testCluster(t, 1, func(c *NodeConfig) { c.WriteBuffer, c.InjectLatency = true, false })
	n := nodes[0]
	if err := cl.Create("f", []byte("first")); err != nil {
		t.Fatal(err)
	}
	if buffered, err := cl.Write("f", []byte("acked")); err != nil || !buffered {
		t.Fatalf("buffered=%v err=%v", buffered, err)
	}
	id := n.Files()[0].ID
	// Roll the log's tail, as a copy that does not fit would: the segment
	// holding the acked copy is sealed, and goes once nothing names it.
	tail, _, rolled, err := n.files.alloc(segmentBytes)
	if err != nil || !rolled {
		t.Fatalf("rolled=%v err=%v", rolled, err)
	}
	n.files.unpin(tail)
	_, file, _ := n.files.get(id, 0)
	old := filepath.Join(n.buffer.dir, segmentName(file.loc.Seg))

	planted := errors.New("planted: the log's disk is full")
	n.persistMu.Lock()
	n.plantAppendErr = planted
	n.persistMu.Unlock()
	if _, err := cl.Write("f", []byte("never")); err == nil {
		t.Fatal("a buffered write was acked while its record could not be logged")
	}
	if _, err := os.Stat(old); err != nil {
		t.Fatalf("the segment holding the acked copy went while the log still names it: %v", err)
	}
	if data, fromBuffer, err := cl.Read("f"); err != nil || string(data) != "acked" || !fromBuffer {
		t.Fatalf("after a failed write f reads %q (fromBuffer=%v, err=%v), want the acked copy", data, fromBuffer, err)
	}
	crashed := t.TempDir()
	if err := os.CopyFS(crashed, os.DirFS(n.cfg.RootDir)); err != nil {
		t.Fatal(err)
	}
	again, err := StartNode(persistNodeConfig(crashed, "127.0.0.1:0"))
	if err != nil {
		t.Fatalf("a restart after a failed write: %v", err)
	}
	defer again.Close()
	if r, err := again.read(int64(id)); err != nil || string(r.Data) != "acked" {
		t.Fatalf("after a restart f reads %q (err=%v), want the acked copy", r.Data, err)
	}

	n.persistMu.Lock()
	n.plantAppendErr = nil
	n.persistMu.Unlock()
	if _, err := cl.Write("f", []byte("later")); err != nil {
		t.Fatal(err)
	}
	if data, _, err := cl.Read("f"); err != nil || string(data) != "later" {
		t.Fatalf("f reads %q (err=%v), want the write after the log recovered", data, err)
	}
}

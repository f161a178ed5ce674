package fs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"eevfs/internal/disk"
	"eevfs/internal/proto"
)

// Tests of the node's storage engine (extent.go): whatever wire plane a
// request arrives on, it must read the same copy, charge the same disks
// and leave the same files behind.

// planeState is one on-disk situation the equivalence oracle runs every
// operation against.
type planeState struct {
	name        string
	stripe      int64 // StripeChunkBytes
	writeBuffer bool
	// prepare runs after the file exists (created through the client).
	prepare func(t *testing.T, n *Node, id int64)
	// straddle is the per-disk byte count [buffer, data0, data1] a read of
	// bytes [900, 2100) must move.
	straddle [3]int64
	// broken: the copy a read must come from is not all there, so every
	// read fails, the same way on both planes.
	broken bool
}

func prefetchFile(t *testing.T, n *Node, id int64) {
	t.Helper()
	if got := n.prefetch(id); got != 1 {
		t.Fatalf("prefetched %d of 1", got)
	}
}

var planeStates = []planeState{
	{name: "plain", straddle: [3]int64{0, 1200, 0}},
	{name: "striped", stripe: 1000, straddle: [3]int64{0, 200, 1000}},
	{name: "prefetched", stripe: 1000, prepare: prefetchFile, straddle: [3]int64{1200, 0, 0}},
	{name: "dirty-in-buffer", stripe: 1000, writeBuffer: true, straddle: [3]int64{1200, 0, 0}},
	{name: "buffer-copy-deleted", stripe: 1000, straddle: [3]int64{1200, 0, 0}, broken: true,
		prepare: func(t *testing.T, n *Node, id int64) {
			prefetchFile(t, n, id)
			// Behind the node's back, half the copy goes: the segment is
			// shorter than the record says. The data disks still hold the
			// file, and a read must not fall back to them — for an
			// unflushed write they would hold older bytes.
			_, file, _ := n.files.get(int(id), 0)
			path := filepath.Join(n.buffer.dir, segmentName(file.loc.Seg))
			if err := os.Truncate(path, file.loc.Off+file.Size/2); err != nil {
				t.Fatal(err)
			}
		}},
}

// planeContent is the file every state starts from: three stripe chunks
// at stripe 1000, two of them on data0.
var planeContent = bytes.Repeat([]byte("0123456789abcdefghijklmno"), 100)

// planeObs is everything one operation is allowed to change that a client
// or an operator could see.
type planeObs struct {
	Data      []byte // bytes read; after a write, the content read back
	Flag      bool   // fromBuffer or buffered
	Err       string // a failed read's code and message
	Hits      int64
	Misses    int64
	BufWrites int64
	Disks     []diskObs // buffer, data0, data1
	Files     []string  // after a write: what lies under buffer/ and data*/
}

type diskObs struct {
	BusySec  float64
	EnergyJ  float64
	SpinUps  int
	Requests int64
	Bytes    int64
}

// planeRig is a one-node cluster in the given state with a frozen clock
// and no latency injection, so every disk timestamp is the model's own;
// the data disks are asleep, so an operation that touches one pays (and
// must account) a spin-up.
type planeRig struct {
	cl   *Client
	n    *Node
	base planeObs
}

func newPlaneRig(t *testing.T, st planeState) *planeRig {
	t.Helper()
	cl, _, nodes := testCluster(t, 1, func(c *NodeConfig) {
		c.InjectLatency = false
		c.IdleThresholdSec = 0 // no timers: spin-downs happen only below
		c.TimeScale = 1e-12    // the fake clock: model time stands still
		c.StripeChunkBytes = st.stripe
		c.WriteBuffer = st.writeBuffer
	})
	n := nodes[0]
	if err := cl.Create("f", planeContent); err != nil {
		t.Fatal(err)
	}
	id := int64(n.Files()[0].ID)
	if st.prepare != nil {
		st.prepare(t, n, id)
	}
	for _, nd := range n.data {
		nd.mu.Lock()
		now := n.diskNow(nd)
		nd.d.BeginSpinDown(now)
		nd.d.CompleteSpinDown(now + 1)
		nd.mu.Unlock()
	}
	r := &planeRig{cl: cl, n: n}
	r.base = r.snapshot()
	return r
}

// snapshot reads the counters and every disk's accounting.
func (r *planeRig) snapshot() planeObs {
	var o planeObs
	o.Hits, o.Misses, o.BufWrites = r.n.Counters()
	for _, nd := range append([]*nodeDisk{r.n.buffer}, r.n.data...) {
		nd.mu.Lock()
		nd.d.Advance(r.n.diskNow(nd))
		s := nd.d.Stats()
		nd.mu.Unlock()
		o.Disks = append(o.Disks, diskObs{
			BusySec: s.TimeInState[disk.Active], EnergyJ: s.EnergyJ,
			SpinUps: s.SpinUps, Requests: s.Requests, Bytes: s.BytesMoved,
		})
	}
	return o
}

// observe returns what changed since the rig was built.
func (r *planeRig) observe(data []byte, flag bool) planeObs {
	o := r.snapshot()
	o.Data, o.Flag = data, flag
	o.Hits -= r.base.Hits
	o.Misses -= r.base.Misses
	o.BufWrites -= r.base.BufWrites
	for i, b := range r.base.Disks {
		d := &o.Disks[i]
		d.BusySec -= b.BusySec
		d.EnergyJ -= b.EnergyJ
		d.SpinUps -= b.SpinUps
		d.Requests -= b.Requests
		d.Bytes -= b.Bytes
	}
	return o
}

// storedFiles lists what lies under buffer/ and data*/, as dir/name.
func storedFiles(t *testing.T, n *Node) []string {
	t.Helper()
	var out []string
	for _, nd := range append([]*nodeDisk{n.buffer}, n.data...) {
		files, err := os.ReadDir(nd.dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			out = append(out, filepath.Base(nd.dir)+"/"+f.Name())
		}
	}
	sort.Strings(out)
	return out
}

// samePlaneObs compares two observations: counts and bytes exactly,
// modeled seconds and joules to float noise (the frozen clock still
// creeps by ~1e-12 model seconds per real second).
func samePlaneObs(a, b planeObs) error {
	if !bytes.Equal(a.Data, b.Data) {
		return fmt.Errorf("bytes differ (%d vs %d)", len(a.Data), len(b.Data))
	}
	fa, fb := a, b
	fa.Data, fb.Data = nil, nil
	fa.Disks, fb.Disks = slices.Clone(a.Disks), slices.Clone(b.Disks)
	for i := range fa.Disks {
		da, db := &fa.Disks[i], &fb.Disks[i]
		if math.Abs(da.BusySec-db.BusySec) > 1e-9 || math.Abs(da.EnergyJ-db.EnergyJ) > 1e-6 {
			return fmt.Errorf("disk %d modeled cost differs: %+v vs %+v", i, *da, *db)
		}
		da.BusySec, db.BusySec, da.EnergyJ, db.EnergyJ = 0, 0, 0, 0
	}
	if !reflect.DeepEqual(fa, fb) {
		return fmt.Errorf("observations differ:\n  %+v\n  %+v", fa, fb)
	}
	return nil
}

// planeOp is one client operation on the file, on one wire plane.
type planeOp struct {
	name string
	run  func(r *planeRig) (data []byte, flag bool, err error)
}

var newPlaneContent = bytes.Repeat([]byte("ZYXWVUTSRQ"), 170) // 1700 B: two chunks, a shrink

var (
	opRead  = planeOp{"Read", func(r *planeRig) ([]byte, bool, error) { return r.cl.Read("f") }}
	opRead0 = planeOp{"ReadAt-whole", func(r *planeRig) ([]byte, bool, error) {
		return r.cl.ReadAt("f", 0, int64(len(planeContent)))
	}}
	opReadTo = planeOp{"ReadTo", func(r *planeRig) ([]byte, bool, error) {
		var buf bytes.Buffer
		_, fromBuffer, err := r.cl.ReadTo("f", &buf)
		return buf.Bytes(), fromBuffer, err
	}}
	opWrite = planeOp{"Write", func(r *planeRig) ([]byte, bool, error) {
		buffered, err := r.cl.Write("f", newPlaneContent)
		return nil, buffered, err
	}}
	opWriteFrom = planeOp{"WriteFrom", func(r *planeRig) ([]byte, bool, error) {
		buffered, err := r.cl.WriteFrom("f", int64(len(newPlaneContent)), bytes.NewReader(newPlaneContent))
		return nil, buffered, err
	}}
)

// runPlaneOp builds a fresh rig in state st, runs op on it and observes.
// plant, when set, names the wire plane whose disk charge is skipped.
func runPlaneOp(t *testing.T, st planeState, op planeOp, write bool, plant string) planeObs {
	t.Helper()
	r := newPlaneRig(t, st)
	if plant != "" {
		r.n.plantSkipCharge.Store(plant)
	}
	data, flag, err := op.run(r)
	if err != nil && (write || !st.broken) {
		t.Fatalf("%s/%s: %v", st.name, op.name, err)
	}
	o := r.observe(data, flag)
	if err != nil {
		var re *proto.RemoteError
		if !errors.As(err, &re) {
			t.Fatalf("%s/%s: untyped error %v", st.name, op.name, err)
		}
		o.Flag, o.Err = false, fmt.Sprintf("%v: %s", re.Code, re.Msg)
	}
	if write {
		o.Files = storedFiles(t, r.n)
		if o.Data, _, err = r.cl.Read("f"); err != nil {
			t.Fatalf("%s/%s: reading back: %v", st.name, op.name, err)
		}
	}
	return o
}

// TestPlanesAreEquivalent is the cross-plane oracle: in every state, the
// RPC and the stream form of an operation return the same bytes and flag —
// or, where the copy is broken, the same typed error and no bytes at all —
// move the hit/miss/buffered-write counters alike, and charge every disk
// the same modeled busy time, joules, spin-ups, requests and bytes; a
// write leaves the same files behind. A ranged read charges exactly the
// bytes of the extents it overlaps.
func TestPlanesAreEquivalent(t *testing.T) {
	for _, st := range planeStates {
		t.Run(st.name, func(t *testing.T) {
			whole, part, fromBuffer := planeContent, planeContent[900:2100], st.straddle[0] > 0
			if st.broken {
				whole, part, fromBuffer = nil, nil, false
			}
			read := runPlaneOp(t, st, opRead, false, "")
			if !bytes.Equal(read.Data, whole) || (read.Err != "") != st.broken {
				t.Fatalf("Read returned %d bytes and error %q", len(read.Data), read.Err)
			}
			if read.Flag != fromBuffer || read.Hits == 0 == (st.straddle[0] > 0) {
				t.Fatalf("Read: fromBuffer=%v hits=%d misses=%d, want buffer=%v", read.Flag, read.Hits, read.Misses, fromBuffer)
			}
			for _, op := range []planeOp{opReadTo, opRead0} {
				if err := samePlaneObs(read, runPlaneOp(t, st, op, false, "")); err != nil {
					t.Errorf("Read vs %s: %v", op.name, err)
				}
			}

			// A chunk-straddling range: same source, counters and outcome as
			// the whole read, and only the overlapped bytes charged.
			at := runPlaneOp(t, st, planeOp{"ReadAt", func(r *planeRig) ([]byte, bool, error) {
				return r.cl.ReadAt("f", 900, 1200)
			}}, false, "")
			if !bytes.Equal(at.Data, part) || at.Err != read.Err {
				t.Errorf("ReadAt returned %d bytes and error %q", len(at.Data), at.Err)
			}
			if at.Flag != read.Flag || at.Hits != read.Hits || at.Misses != read.Misses {
				t.Errorf("ReadAt: fromBuffer=%v hits=%d misses=%d; Read: %v %d %d",
					at.Flag, at.Hits, at.Misses, read.Flag, read.Hits, read.Misses)
			}
			for i, want := range st.straddle {
				wantUps := 0
				if want > 0 && i > 0 {
					wantUps = 1 // a sleeping data disk that is touched wakes once
				}
				if d := at.Disks[i]; d.Bytes != want || d.SpinUps != wantUps {
					t.Errorf("ReadAt disk %d moved %d bytes with %d spin-ups, want %d and %d", i, d.Bytes, d.SpinUps, want, wantUps)
				}
			}

			write := runPlaneOp(t, st, opWrite, true, "")
			if !bytes.Equal(write.Data, newPlaneContent) {
				t.Fatal("content after Write is not what was written")
			}
			if write.Flag != st.writeBuffer {
				t.Fatalf("Write buffered=%v, want %v", write.Flag, st.writeBuffer)
			}
			if err := samePlaneObs(write, runPlaneOp(t, st, opWriteFrom, true, "")); err != nil {
				t.Errorf("Write vs WriteFrom: %v", err)
			}
		})
	}
}

// TestPlaneOraclePlantedBug: the oracle must notice a plane that moves
// the right bytes but forgets to charge the disks.
func TestPlaneOraclePlantedBug(t *testing.T) {
	st := planeStates[1] // striped
	if err := samePlaneObs(runPlaneOp(t, st, opRead, false, ""), runPlaneOp(t, st, opReadTo, false, planeStream)); err == nil {
		t.Error("oracle passed a stream read that skips the disk charge")
	}
	if err := samePlaneObs(runPlaneOp(t, st, opWrite, true, planeRPC), runPlaneOp(t, st, opWriteFrom, true, "")); err == nil {
		t.Error("oracle passed an RPC write that skips the disk charge")
	}
}

// dataFiles lists storedFiles without the buffer disk.
func dataFiles(t *testing.T, n *Node) []string {
	t.Helper()
	var out []string
	for _, f := range storedFiles(t, n) {
		if !strings.HasPrefix(f, "buffer/") {
			out = append(out, f)
		}
	}
	return out
}

// checkStorage holds a quiet node's disks to its table, once the log's
// cleaner is done: the data disks hold extents of the node's files only,
// plus at most one spare each — the one the disk names, which exists; no
// segment holds live bytes of a file the node does not have (the table's
// check); and buffer/ holds exactly the segments records name, plus the
// tail.
func checkStorage(t *testing.T, n *Node) {
	t.Helper()
	n.cleanWG.Wait()
	if err := n.files.check(true); err != nil {
		t.Fatal(err)
	}
	held := make(map[string]bool)
	for _, e := range n.Files() {
		for _, x := range n.dataExtents(e) {
			held[filepath.Base(filepath.Dir(x.path))+"/"+filepath.Base(x.path)] = true
		}
	}
	for _, nd := range n.data {
		if spare := nd.spare.Load(); spare != nil {
			if _, err := os.Stat(*spare); err != nil {
				t.Errorf("%s names a spare it does not hold: %v", nd.label, err)
			}
			held[filepath.Base(nd.dir)+"/"+filepath.Base(*spare)] = true
		}
	}
	for _, f := range dataFiles(t, n) {
		if !held[f] {
			t.Errorf("%s lies on a data disk for a file the node does not hold, and is not its spare", f)
		}
	}
	want := make(map[string]bool)
	n.files.mu.Lock()
	for _, rec := range n.files.files {
		if rec.loc.Seg != 0 {
			want["buffer/"+segmentName(rec.loc.Seg)] = true
		}
	}
	if tail := n.files.tail; tail != nil {
		want["buffer/"+segmentName(tail.id)] = true
	}
	n.files.mu.Unlock()
	got := make(map[string]bool)
	for _, f := range storedFiles(t, n) {
		if strings.HasPrefix(f, "buffer/") {
			got[f] = true
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("buffer/ holds %v; the records name and the tail is %v", got, want)
	}
}

// TestOverwriteLeavesNoStaleExtents: a file's data-disk extents are
// exactly its current layout after every overwrite, and nothing after a
// delete, on both planes and through the write buffer's lazy flush; and
// the log keeps nothing of a deleted file.
func TestOverwriteLeavesNoStaleExtents(t *testing.T) {
	big, small := bytes.Repeat([]byte("x"), 2500), []byte("y")
	for _, op := range []string{"Write", "WriteFrom", "buffered"} {
		t.Run(op, func(t *testing.T) {
			cl, _, nodes := testCluster(t, 1, func(c *NodeConfig) {
				c.InjectLatency = false
				c.StripeChunkBytes = 1000
				c.WriteBuffer = op == "buffered"
			})
			n := nodes[0]
			write := func(data []byte) {
				t.Helper()
				var err error
				if op == "WriteFrom" {
					_, err = cl.WriteFrom("f", int64(len(data)), bytes.NewReader(data))
				} else {
					_, err = cl.Write("f", data)
				}
				if err != nil {
					t.Fatal(err)
				}
				n.flushAll() // a no-op unless buffered
				got, _, err := cl.Read("f")
				if err != nil || !bytes.Equal(got, data) {
					t.Fatalf("read back %d bytes, err=%v; want %d", len(got), err, len(data))
				}
			}
			expect := func(when string, want ...string) {
				t.Helper()
				if got := dataFiles(t, n); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: data disks hold %v, want %v", when, got, want)
				}
			}
			if err := cl.Create("f", big); err != nil {
				t.Fatal(err)
			}
			n.flushAll()
			chunks := []string{"data0/f00000000.c000.dat", "data0/f00000000.c002.dat", "data1/f00000000.c001.dat"}
			expect("after create", chunks...)
			write(small)
			expect("after overwrite-shrink", "data0/f00000000.dat")
			write(big)
			expect("after overwrite-grow", chunks...)
			write(small)
			if err := cl.Delete("f"); err != nil {
				t.Fatal(err)
			}
			if got := dataFiles(t, n); len(got) != 0 {
				t.Fatalf("after delete the data disks still hold %v", got)
			}
			checkStorage(t, n)
		})
	}
}

// withoutSpares drops the data disks' spares from a storedFiles list.
func withoutSpares(files []string) []string {
	return slices.DeleteFunc(slices.Clone(files), func(f string) bool {
		return strings.HasPrefix(filepath.Base(f), "spare.")
	})
}

// writeF replaces file f's content on one wire plane.
var writeF = map[string]func(cl *Client, data []byte) error{
	"Write": func(cl *Client, data []byte) error { _, err := cl.Write("f", data); return err },
	"WriteFrom": func(cl *Client, data []byte) error {
		_, err := cl.WriteFrom("f", int64(len(data)), bytes.NewReader(data))
		return err
	},
}

// TestFailedWriteLeavesOldContent: a write that fails after part of it
// has landed leaves the previous content readable byte for byte and no
// debris, on both planes. The fault is a directory squatting on the
// staging name of the second stripe chunk, so chunk 0 lands and chunk 1's
// create fails. The -spare arms do it with extents large enough to
// recycle and a spare on each disk, which the failed write uses up: its
// staging files are spares, and the spare it cannot rename goes too.
func TestFailedWriteLeavesOldContent(t *testing.T) {
	for _, arm := range []struct {
		suffix   string
		stripe   int64
		old, new []byte
	}{
		{"", 1000, planeContent, newPlaneContent},
		{"-spare", recycleBytes, patternedContent(41, 3*recycleBytes), patternedContent(42, 3*recycleBytes)},
	} {
		for _, plane := range []string{"Write", "WriteFrom"} {
			t.Run(plane+arm.suffix, func(t *testing.T) {
				cl, _, nodes := testCluster(t, 1, func(c *NodeConfig) {
					c.InjectLatency = false
					c.StripeChunkBytes = arm.stripe
				})
				n := nodes[0]
				if err := cl.Create("f", arm.old); err != nil {
					t.Fatal(err)
				}
				if arm.suffix != "" { // rewrite once, which leaves a spare on each disk
					if err := writeF[plane](cl, arm.old); err != nil {
						t.Fatal(err)
					}
					for _, nd := range n.data {
						if nd.spare.Load() == nil {
							t.Fatalf("%s holds no spare after a rewrite of %d-byte extents", nd.label, arm.stripe)
						}
					}
				}
				before := storedFiles(t, n)
				squat := fmt.Sprintf("%s.%d.part", extentPath(n.data[1], 0, 1), n.partSeq.Load()+1)
				if err := os.Mkdir(squat, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := writeF[plane](cl, arm.new); err == nil {
					t.Fatal("write succeeded although chunk 1 could not be staged")
				}
				got, _, err := cl.Read("f")
				if err != nil || !bytes.Equal(got, arm.old) {
					t.Fatalf("after the failed write: read %d bytes, err=%v; want the old %d bytes", len(got), err, len(arm.old))
				}
				if after, want := storedFiles(t, n), withoutSpares(before); !reflect.DeepEqual(after, want) {
					t.Fatalf("failed write left debris: %v, want %v", after, want)
				}
				checkStorage(t, n)
			})
		}
	}
}

// TestStartNodeSweepsPartFiles: staging files a crash mid-write left
// behind are removed before the node serves, and so is a spare; visible
// files are untouched. The 1 MiB arm rewrites the file once first, so
// the node stops with a spare on disk.
func TestStartNodeSweepsPartFiles(t *testing.T) {
	for _, size := range []int{5, 1 << 20} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			root := t.TempDir()
			cfg := persistNodeConfig(root, "127.0.0.1:0")
			cfg.WriteBuffer = false
			n, err := StartNode(cfg)
			if err != nil {
				t.Fatal(err)
			}
			content := patternedContent(43, size)
			if err := n.create(1, int64(size)); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 1+min(size/recycleBytes, 1); i++ {
				if _, err := n.write(1, content); err != nil {
					t.Fatal(err)
				}
			}
			if spare := n.data[0].spare.Load(); (spare != nil) != (size >= recycleBytes) {
				t.Fatalf("data0's spare before the restart: %v", spare)
			}
			n.Close()
			for _, orphan := range []string{"data0/f00000001.dat.7.part", "data1/f00000009.c001.dat.3.part", "buffer/f00000001.dat.8.part"} {
				if err := os.WriteFile(filepath.Join(root, orphan), []byte("torn"), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			n, err = StartNode(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			if got, want := storedFiles(t, n), []string{"data0/f00000001.dat"}; !reflect.DeepEqual(got, want) {
				t.Fatalf("after restart the disks hold %v, want %v", got, want)
			}
			if r, err := n.read(1); err != nil || !bytes.Equal(r.Data, content) {
				t.Fatalf("visible file after the sweep: %d bytes, err=%v", len(r.Data), err)
			}
		})
	}
}

// rewriteUnderReader opens a read stream of a 1 MiB file, takes one
// 512-byte chunk of it — the node, granted a window of one, then waits
// with the file open — rewrites the file twice through WriteFrom, and
// returns what the stream delivered in all, with the old content. plant
// sets plantRecycleUnderReader.
func rewriteUnderReader(t *testing.T, plant bool) (got, old []byte) {
	t.Helper()
	cl, _, nodes := testCluster(t, 1, func(c *NodeConfig) { c.InjectLatency = false })
	nodes[0].files.plantRecycleUnderReader = plant
	const size = 1 << 20
	old = patternedContent(44, size)
	if err := cl.Create("f", old); err != nil {
		t.Fatal(err)
	}
	r, err := cl.OpenRead("f", StreamOptions{ChunkBytes: proto.MinStreamChunk, Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got = make([]byte, proto.MinStreamChunk)
	if _, err := io.ReadFull(r, got); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := writeF["WriteFrom"](cl, patternedContent(int64(45+i), size)); err != nil {
			t.Fatal(err)
		}
	}
	rest, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return append(got, rest...), old
}

// TestRecycleSparesNothingUnderAReader: a reading that has the file's
// data-disk extent open keeps reading the bytes it opened, though two
// rewrites commit meanwhile — the first retires the inode the reading
// holds, and the second would overwrite it if it were kept as the spare.
// The planted commit that ignores the reader must fail the same check.
func TestRecycleSparesNothingUnderAReader(t *testing.T) {
	if got, old := rewriteUnderReader(t, false); !bytes.Equal(got, old) {
		t.Fatalf("a reading open across two rewrites delivered %d bytes, not the %d it opened", len(got), len(old))
	}
	if got, old := rewriteUnderReader(t, true); bytes.Equal(got, old) {
		t.Fatal("oracle passed a commit that recycles an extent a reading has open")
	}
}

// TestRecycleReusesTheRetiredExtent: twenty rewrites of a 1 MiB file keep
// at most one spare per data disk, and once warm they allocate no inode:
// each commit keeps the extent it retires as the spare, and the next
// rewrite stages into that very inode.
func TestRecycleReusesTheRetiredExtent(t *testing.T) {
	cl, _, nodes := testCluster(t, 1, func(c *NodeConfig) { c.InjectLatency = false })
	n := nodes[0]
	const size = 1 << 20
	if err := cl.Create("f", patternedContent(50, size)); err != nil {
		t.Fatal(err)
	}
	path := n.dataExtents(n.Files()[0])[0].path
	stat := func(p string) os.FileInfo {
		t.Helper()
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		return fi
	}
	var retired os.FileInfo // the extent the previous rewrite replaced
	for i := 1; i <= 20; i++ {
		cur := stat(path)
		content := patternedContent(int64(50+i), size)
		if err := writeF["WriteFrom"](cl, content); err != nil {
			t.Fatal(err)
		}
		if retired != nil && !os.SameFile(stat(path), retired) {
			t.Fatalf("rewrite %d staged a new inode, not the spare rewrite %d retired", i, i-1)
		}
		spares := 0
		for _, f := range dataFiles(t, n) {
			if strings.HasPrefix(filepath.Base(f), "spare.") {
				spares++
			}
		}
		spare := n.data[n.Files()[0].Disk].spare.Load()
		if spares != 1 || spare == nil || !os.SameFile(stat(*spare), cur) {
			t.Fatalf("after rewrite %d: %d spares on the data disks; want one, the extent it replaced", i, spares)
		}
		retired = cur
		if got, _, err := cl.Read("f"); err != nil || !bytes.Equal(got, content) {
			t.Fatalf("read after rewrite %d: %d bytes, err=%v", i, len(got), err)
		}
	}
	checkStorage(t, n)
}

// TestRecycleConcurrentReadsSeeWholeVersions: writers rewriting files of
// recyclable size on shared data disks, with readers on both planes
// reading them meanwhile, never let a read see anything but one whole
// version of its file — no reading has an inode recycled under it, and
// no two writers stage into one spare.
func TestRecycleConcurrentReadsSeeWholeVersions(t *testing.T) {
	const files, versions, size = 3, 8, 2 * recycleBytes
	cl, _, nodes := testCluster(t, 1, func(c *NodeConfig) { c.InjectLatency = false })
	content := func(f, v int) []byte { return patternedContent(int64(100*f+v), size) }
	all := make([][][]byte, files)
	for f := range all {
		for v := 0; v <= versions; v++ {
			all[f] = append(all[f], content(f, v))
		}
		if err := cl.Create(fmt.Sprint(f), all[f][0]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for f := 0; f < files; f++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for v := 1; v <= versions; v++ {
				if _, err := cl.WriteFrom(fmt.Sprint(f), size, bytes.NewReader(all[f][v])); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 2*versions; i++ {
				var got []byte
				var err error
				if i%2 == 0 { // a slow reading, open across rewrites
					var r *FileReader
					if r, err = cl.OpenRead(fmt.Sprint((f+1)%files), StreamOptions{ChunkBytes: 4 << 10, Window: 1}); err == nil {
						got, err = io.ReadAll(r)
						r.Close()
					}
				} else {
					got, _, err = cl.Read(fmt.Sprint((f + 1) % files))
				}
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.ContainsFunc(all[(f+1)%files], func(v []byte) bool { return bytes.Equal(got, v) }) {
					t.Errorf("a read of file %d returned %d bytes that are no version of it", (f+1)%files, len(got))
					return
				}
			}
		}()
	}
	wg.Wait()
	checkStorage(t, nodes[0])
}

// TestTierMovementIsChunkMemory: prefetch and flush move a file between
// the tiers through one pooled chunk, whatever its size.
func TestTierMovementIsChunkMemory(t *testing.T) {
	const size = 32 << 20
	cfg := persistNodeConfig(t.TempDir(), "127.0.0.1:0")
	cfg.StripeChunkBytes = 1 << 20
	n, err := StartNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.create(1, size); err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte("eevfs-32MiB-file"), size/16)
	if buffered, err := n.write(1, content); err != nil || !buffered {
		t.Fatalf("buffered=%v err=%v", buffered, err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	n.flushOne(1)
	prefetched := n.prefetch(1)
	runtime.ReadMemStats(&after)

	if prefetched != 1 {
		t.Fatalf("prefetched %d of 1", prefetched)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("flushing and prefetching %d MiB allocated %d bytes, want < 1 MiB", size>>20, got)
	}
	if _, f, _ := n.files.get(1, 0); !f.Prefetched {
		t.Fatal("file not marked prefetched")
	}
	r, err := n.read(1)
	if err != nil || !r.FromBuffer || !bytes.Equal(r.Data, content) {
		t.Fatalf("read after tier movement: %d bytes fromBuffer=%v err=%v", len(r.Data), r.FromBuffer, err)
	}
}

// TestExtentPathMatchesFmt: the hand-built path is byte for byte what
// filepath.Join over fmt's %08d and %03d gave, so a node restarted on an
// older root finds its files.
func TestExtentPathMatchesFmt(t *testing.T) {
	nd := &nodeDisk{dir: filepath.Join(t.TempDir(), "data0")}
	for _, id := range []int64{0, 1, 42, 99999999, 100000000, 123456789012, math.MaxInt64, -1, -1234567, -12345678, math.MinInt64} {
		if got, want := extentPath(nd, id, -1), filepath.Join(nd.dir, fmt.Sprintf("f%08d.dat", id)); got != want {
			t.Errorf("extentPath(%d) = %q, want %q", id, got, want)
		}
		for _, chunk := range []int{0, 7, 99, 999, 1000, 123456} {
			want := filepath.Join(nd.dir, fmt.Sprintf("f%08d.c%03d.dat", id, chunk))
			if got := extentPath(nd, id, chunk); got != want {
				t.Errorf("extentPath(%d, chunk %d) = %q, want %q", id, chunk, got, want)
			}
		}
	}
}

// TestFileKeyMatchesFmt: the energy ledger's per-file key, built with
// strconv, is byte for byte fmt's "file:%d", so per-file joules land in
// the buckets they always did.
func TestFileKeyMatchesFmt(t *testing.T) {
	for _, id := range []int64{0, 1, 9, 10, 99, 100, 42, 99999999, 123456789012, math.MaxInt64, -1, -1234567, math.MinInt64} {
		if got, want := fileKey(id), fmt.Sprintf("file:%d", id); got != want {
			t.Errorf("fileKey(%d) = %q, want %q", id, got, want)
		}
	}
}

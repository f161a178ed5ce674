package fs

import (
	"bytes"
	"errors"
	"fmt"
	"os"
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

// Tests of the node's file table (filetable.go) and of the lifetimes it
// took over from the maps it replaced.

// Direct drivers of the node's handlers, for tests that skip the wire.
func (n *Node) create(id, size int64) error {
	_, err := n.handleCreate(proto.NodeCreateReq{FileID: id, Size: size}, nil)
	return err
}

func (n *Node) write(id int64, data []byte) (buffered bool, err error) {
	resp, err := n.handleWrite(proto.NodeWriteReq{FileID: id, Data: data}, nil)
	return resp.Buffered, err
}

// read is a whole-file RPC read: the reply handleRead built in place,
// decoded, and its chunk given back.
func (n *Node) read(id int64) (proto.NodeReadResp, error) {
	r, err := n.handleRead(proto.TNodeReadResp, id, 0, wholeFile, nil)
	if err != nil {
		return proto.NodeReadResp{}, err
	}
	defer proto.PutChunk(r.body)
	resp, err := proto.DecodeNodeReadResp(r.body)
	resp.Data = bytes.Clone(resp.Data)
	return resp, err
}

func (n *Node) prefetch(ids ...int64) int64 {
	resp, _ := n.handlePrefetch(proto.NodePrefetchReq{FileIDs: ids}, nil)
	return resp.Prefetched
}

func (n *Node) remove(id int64) error {
	_, err := n.handleDelete(proto.NodeDeleteReq{FileID: id}, nil)
	return err
}

// move relocates a file's buffer copy to the log's tail, as the cleaner
// does; a file with no copy in the buffer stays where it is.
func (n *Node) move(id int64) error {
	rec, file, src, ok := n.files.getPinned(int(id), 0)
	defer n.files.unpin(src)
	if !ok || src == nil {
		return nil
	}
	return n.relocate(rec, file, n.bufferExtent(src, file))
}

// put applies a present record for e; unflushed > 0 makes it dirty.
func (t *fileTable) put(e metadata.NodeEntry, unflushed int64) error {
	return t.apply(nodeRecord{Entry: e, Present: true, Dirty: unflushed > 0, DirtySize: unflushed, NextDisk: t.cursor})
}

func (t *fileTable) tombstone(id int) error {
	return t.apply(nodeRecord{Entry: metadata.NodeEntry{ID: id}, NextDisk: t.cursor})
}

// check recomputes what the table keeps running — occupancy, the per-disk
// index and every segment's live bytes — from its records; a segment that
// is done with must be gone. With quiet set nothing may be in flight, so no
// reservation and no pin may be left either.
func (t *fileTable) check(quiet bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var used int64
	indexed := 0
	live := make(map[uint64]int64)
	for id, rec := range t.files {
		used += rec.held()
		if rec.loc.Seg != 0 {
			live[rec.loc.Seg] += rec.Size
		}
		if quiet && rec.reserved != 0 {
			return fmt.Errorf("file %d still has %d bytes reserved", id, rec.reserved)
		}
		_, in := t.wanted[rec.Disk][id]
		if want := rec.hint > 0 && !rec.inBuffer(); in != want {
			return fmt.Errorf("file %d (%+v) indexed=%v, want %v", id, *rec, in, want)
		}
		if in {
			indexed++
		}
	}
	for d := range t.wanted {
		indexed -= len(t.wanted[d])
	}
	if used != t.used || indexed != 0 {
		return fmt.Errorf("occupancy %d, records sum to %d; %d index entries without a record", t.used, used, -indexed)
	}
	for id, s := range t.segs {
		switch {
		case s.live != live[id]:
			return fmt.Errorf("segment %d holds %d live bytes, its records name %d", id, s.live, live[id])
		case quiet && s.pins != 0:
			return fmt.Errorf("segment %d still pinned %d times", id, s.pins)
		case s.sealed && s.live == 0 && s.pins == 0:
			return fmt.Errorf("segment %d is done with and still there", id)
		}
		delete(live, id)
	}
	if len(live) != 0 {
		return fmt.Errorf("records name segments the table does not have: %v", live)
	}
	return nil
}

func TestFileTableBasics(t *testing.T) {
	ft := newFileTable(2, 0)
	e := metadata.NodeEntry{ID: 3, Size: 50, Disk: 1}
	if err := ft.put(e, 0); err != nil {
		t.Fatal(err)
	}
	rec, got, ok := ft.get(3, 0)
	if !ok || got.NodeEntry != e || rec == nil || got.last != 0 {
		t.Fatalf("get = %+v, %v", got, ok)
	}
	if _, got, _ = ft.get(3, 7.5); got.last != 7.5 {
		t.Fatalf("access not timestamped: %+v", got)
	}
	if _, _, ok := ft.get(99, 1); ok {
		t.Error("missing id found")
	}
	if files := ft.manifest().Files; len(files) != 1 || files[0] != e {
		t.Fatalf("manifest files = %v", files)
	}
	// What the process alone knows survives a transition of the file.
	if err := ft.put(metadata.NodeEntry{ID: 3, Size: 60, Disk: 1}, 60); err != nil {
		t.Fatal(err)
	}
	if again, got, _ := ft.get(3, 0); again != rec || got.last != 7.5 || got.unflushed != 60 {
		t.Fatalf("after a second apply: same record=%v, %+v", again == rec, got)
	}
}

func TestFileTableValidation(t *testing.T) {
	ft := newFileTable(2, 0)
	for what, e := range map[string]metadata.NodeEntry{
		"zero size":      {ID: 1, Size: 0, Disk: 0},
		"negative disk":  {ID: 1, Size: 1, Disk: -1},
		"disk not there": {ID: 1, Size: 1, Disk: 2},
	} {
		if err := ft.put(e, 0); err == nil {
			t.Errorf("%s accepted", what)
		}
	}
	if len(ft.files) != 0 {
		t.Fatalf("rejected records left %d files behind", len(ft.files))
	}
}

// TestFileTableOccupancy: the buffer disk's occupancy is a running total;
// it must follow the prefetched flag, a resize, a replaced record, an
// unflushed write, a reservation and a delete.
func TestFileTableOccupancy(t *testing.T) {
	ft := newFileTable(2, 100)
	expect := func(when string, want int64) {
		t.Helper()
		if err := ft.check(false); err != nil || ft.used != want {
			t.Fatalf("%s: occupancy %d, want %d (check: %v)", when, ft.used, want, err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := ft.put(metadata.NodeEntry{ID: i, Size: int64(10 * (i + 1)), Disk: i % 2}, 0); err != nil {
			t.Fatal(err)
		}
	}
	expect("nothing in the buffer", 0)
	ft.put(metadata.NodeEntry{ID: 1, Size: 20, Disk: 1, Prefetched: true}, 0)
	ft.put(metadata.NodeEntry{ID: 3, Size: 40, Disk: 1, Prefetched: true}, 0)
	expect("two prefetched", 60)
	ft.put(metadata.NodeEntry{ID: 1, Size: 20, Disk: 1}, 0)
	expect("one cleared", 40)
	ft.put(metadata.NodeEntry{ID: 3, Size: 70, Disk: 1, Prefetched: true}, 0)
	ft.put(metadata.NodeEntry{ID: 2, Size: 5, Disk: 0}, 5)
	expect("a resize and an unflushed write", 75)

	rec, _, _ := ft.get(0, 0)
	if ft.reserve(rec, 26) {
		t.Fatal("26 bytes granted with 25 free")
	}
	if !ft.reserve(rec, 25) {
		t.Fatal("25 bytes refused with 25 free")
	}
	expect("a reservation", 100)
	ft.tombstone(3)
	ft.tombstone(0) // takes its reservation with it
	expect("two deletes", 5)
	ft.release(rec, 25)
	expect("a release after the delete", 5)
	if ft.reserve(rec, 1) {
		t.Fatal("room granted to a deleted file")
	}
}

// TestFileTableDiskIndex: a data disk's index holds exactly the hinted
// files only it can serve, and answers when it is next wanted.
func TestFileTableDiskIndex(t *testing.T) {
	ft := newFileTable(3, 0)
	for i := 0; i < 6; i++ {
		if err := ft.put(metadata.NodeEntry{ID: i, Size: 1, Disk: i % 3}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := ft.nextWanted(1, 100); ok {
		t.Fatal("a disk without hinted files is wanted")
	}
	ft.setHints([]proto.FileHint{{FileID: 1, MeanIntervalSec: 30}, {FileID: 4, MeanIntervalSec: 5}, {FileID: 2, MeanIntervalSec: 1}, {FileID: 77, MeanIntervalSec: 1}}, 2)
	ft.get(4, 200) // requested at 200, hinted every 10: next at 210
	if at, ok := ft.nextWanted(1, 100); !ok || at != 160 {
		t.Fatalf("disk 1 next wanted at %v (%v), want 160: file 1, never requested, counts from now", at, ok)
	}
	ft.get(1, 140)
	if at, _ := ft.nextWanted(1, 100); at != 200 {
		t.Fatalf("disk 1 next wanted at %v, want 200", at)
	}
	// A copy in the buffer takes a file off its disk's index.
	ft.put(metadata.NodeEntry{ID: 1, Size: 1, Disk: 1, Prefetched: true}, 0)
	if at, _ := ft.nextWanted(1, 100); at != 210 {
		t.Fatalf("disk 1 next wanted at %v, want 210 once file 1 is prefetched", at)
	}
	ft.put(metadata.NodeEntry{ID: 4, Size: 1, Disk: 1}, 1)
	if _, ok := ft.nextWanted(1, 100); ok {
		t.Fatal("disk 1 wanted although both its hinted files are in the buffer")
	}
	ft.put(metadata.NodeEntry{ID: 4, Size: 1, Disk: 1}, 0) // flushed: back on the index, hint kept
	if at, _ := ft.nextWanted(1, 100); at != 210 {
		t.Fatalf("disk 1 next wanted at %v, want 210 after the flush", at)
	}
	ft.tombstone(4)
	ft.setHints([]proto.FileHint{{FileID: 2, MeanIntervalSec: 0}}, 2)
	for d := range ft.wanted {
		if len(ft.wanted[d]) != 0 {
			t.Fatalf("disk %d still indexes %v", d, ft.wanted[d])
		}
	}
	if err := ft.check(true); err != nil {
		t.Fatal(err)
	}
}

func TestFileTableDelete(t *testing.T) {
	ft := newFileTable(1, 0)
	if err := ft.tombstone(1); err != nil || len(ft.files) != 0 {
		t.Fatalf("tombstone of a missing id: %v, %d files", err, len(ft.files))
	}
	ft.put(metadata.NodeEntry{ID: 1, Size: 1}, 0)
	ft.setHints([]proto.FileHint{{FileID: 1, MeanIntervalSec: 1}}, 1)
	old, _, _ := ft.get(1, 5)
	ft.tombstone(1)
	if _, _, ok := ft.get(1, 0); ok || len(ft.files) != 0 || len(ft.wanted[0]) != 0 {
		t.Fatal("delete left the file, or its index entry, behind")
	}
	// The id coming back is a new file: nothing of the old one is inherited.
	ft.put(metadata.NodeEntry{ID: 1, Size: 1}, 0)
	if rec, got, _ := ft.get(1, 0); rec == old || got.hint != 0 || got.last != 0 {
		t.Fatalf("re-created file inherited %+v", got)
	}
}

// TestFileTableConcurrent is the -race stress: reads, writes on both
// planes' commit path, deletes, re-creates, prefetches, relocations in the
// log and hints on 64 ids of one node at once. Whatever interleaving ran,
// the table's running totals must equal what its records say, nothing may
// stay reserved or pinned, and the disks hold bytes only for files the
// table has.
func TestFileTableConcurrent(t *testing.T) {
	cfg := persistNodeConfig(t.TempDir(), "127.0.0.1:0")
	cfg.BufferCapacityBytes = 2048
	cfg.IdleThresholdSec = 5
	n, err := StartNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	const ids, workers, rounds = 64, 8, 300
	for id := int64(0); id < ids; id++ {
		if err := n.create(id, 64); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gone := make(map[int64]bool) // of the ids g alone deletes and re-creates
			for i := 0; i < rounds; i++ {
				id := int64((g*31 + i*7) % ids)
				switch (g + i) % 5 {
				case 0:
					n.write(id, bytes.Repeat([]byte{byte(g)}, 32+i%64))
				case 1:
					n.read(id)
				case 2:
					n.prefetch(id, (id+1)%ids)
				case 3:
					n.handleHints(proto.NodeHintsReq{Hints: []proto.FileHint{{FileID: id, MeanIntervalSec: float64(i % 3)}}}, nil)
					n.move(id)
				default:
					id = int64(g + workers*(i%(ids/workers)))
					if gone[id] {
						n.create(id, 16)
					} else {
						n.remove(id)
					}
					gone[id] = !gone[id]
				}
				if err := n.files.check(false); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	checkStorage(t, n)
}

// TestDeleteDuringStreamWrite: a delete that lands between a write's open
// and its end must win — the write fails typed, and nothing of the file
// comes back: no entry, no bytes on a data disk, no live bytes in the log,
// no buffer occupancy.
func TestDeleteDuringStreamWrite(t *testing.T) {
	for _, buffered := range []bool{true, false} {
		t.Run(fmt.Sprintf("buffered=%v", buffered), func(t *testing.T) {
			cl, _, nodes := testCluster(t, 1, func(c *NodeConfig) {
				c.InjectLatency = false
				c.WriteBuffer = buffered
				c.BufferCapacityBytes = 4096
			})
			n := nodes[0]
			if err := cl.Create("f", []byte("old")); err != nil {
				t.Fatal(err)
			}
			content := bytes.Repeat([]byte("new!"), 512)
			w, err := cl.OpenWrite("f", int64(len(content)), StreamOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := cl.Delete("f"); err != nil {
				t.Fatal(err)
			}
			_, err = w.Write(content)
			if err == nil {
				err = w.Close()
			}
			if !errors.Is(err, ErrFileNotFound) {
				t.Fatalf("write that lost to a delete ended with %v, want ErrFileNotFound", err)
			}
			if files := n.Files(); len(files) != 0 {
				t.Fatalf("the deleted file is back: %+v", files)
			}
			if left := dataFiles(t, n); len(left) != 0 {
				t.Fatalf("the data disks still hold %v", left)
			}
			checkStorage(t, n)
			if n.files.used != 0 {
				t.Fatalf("buffer occupancy %d after the delete", n.files.used)
			}
		})
	}
}

// TestConcurrentWritesShareBufferCap: admission to the buffer disk is a
// reservation, not a look: of two writes in flight that each fit the
// capacity alone, one is buffered and the other goes to the data disks.
func TestConcurrentWritesShareBufferCap(t *testing.T) {
	cl, _, nodes := testCluster(t, 1, func(c *NodeConfig) {
		c.InjectLatency = false
		c.WriteBuffer = true
		c.BufferCapacityBytes = 1000
	})
	content := bytes.Repeat([]byte("x"), 600)
	var ws []*FileWriter
	for _, name := range []string{"a", "b"} {
		if err := cl.Create(name, []byte("1")); err != nil {
			t.Fatal(err)
		}
		w, err := cl.OpenWrite(name, int64(len(content)), StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	buffered := 0
	for _, w := range ws {
		if _, err := w.Write(content); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if w.Buffered() {
			buffered++
		}
	}
	if ft := nodes[0].files; buffered != 1 || ft.used != 600 || ft.check(true) != nil {
		t.Fatalf("%d of two 600 B writes buffered under a 1000 B cap, occupancy %d (check: %v); want 1 and 600",
			buffered, ft.used, ft.check(true))
	}
	for _, name := range []string{"a", "b"} {
		if got, _, err := cl.Read(name); err != nil || !bytes.Equal(got, content) {
			t.Fatalf("%s reads back %d bytes, err=%v", name, len(got), err)
		}
	}
}

// TestFileTableDiesWithItsFiles: everything the node keeps per file goes
// when the file does, so churn on fresh ids (write-mix creates and deletes
// 10% each) leaves nothing behind; a hint for an id the node never held is
// not kept either.
func TestFileTableDiesWithItsFiles(t *testing.T) {
	cfg := persistNodeConfig(t.TempDir(), "127.0.0.1:0")
	cfg.IdleThresholdSec = 5
	n, err := StartNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for id := int64(0); id < 10000; id++ {
		if err := n.create(id, 8); err != nil {
			t.Fatal(err)
		}
		if _, err := n.write(id, []byte("12345678")); err != nil {
			t.Fatal(err)
		}
		n.handleHints(proto.NodeHintsReq{Hints: []proto.FileHint{{FileID: id, MeanIntervalSec: 1}, {FileID: id + 1, MeanIntervalSec: 1}}}, nil)
		_, err := n.read(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.remove(id); err != nil {
			t.Fatal(err)
		}
	}
	ft := n.files
	if err := ft.check(true); err != nil || len(ft.files) != 0 || ft.used != 0 {
		t.Fatalf("after 10000 create/write/read/delete rounds the table holds %d files, %d bytes (check: %v)", len(ft.files), ft.used, err)
	}
}

// TestCloseStopsIdleTimers: Close flushes, which services the data disks
// and re-arms their idle timers; a closed node's disks must not move again.
func TestCloseStopsIdleTimers(t *testing.T) {
	cfg := persistNodeConfig(t.TempDir(), "127.0.0.1:0")
	cfg.IdleThresholdSec = 5
	cfg.TimeScale = 100 // the timer fires 50 ms after the flush
	n, err := StartNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(0); id < 2; id++ {
		if err := n.create(id, 4); err != nil {
			t.Fatal(err)
		}
		if buffered, err := n.write(id, []byte("data")); err != nil || !buffered {
			t.Fatalf("buffered=%v err=%v", buffered, err)
		}
	}
	n.Close()
	spinDowns := func() (total int) {
		for _, nd := range n.data {
			nd.mu.Lock()
			total += nd.d.Stats().SpinDowns
			nd.mu.Unlock()
		}
		return total
	}
	before := spinDowns()
	time.Sleep(150 * time.Millisecond)
	if after := spinDowns(); after != before {
		t.Fatalf("a closed node spun %d disks down", after-before)
	}
}

// TestStaleIdleTimerDoesNotSpinDown: an idle timer that fires while a
// request holds its disk can no longer be stopped by the re-arm at the end
// of that request's service. Once it gets the disk it must see that it was
// replaced and leave the disk spinning until the new threshold runs out.
func TestStaleIdleTimerDoesNotSpinDown(t *testing.T) {
	cfg := persistNodeConfig(t.TempDir(), "127.0.0.1:0")
	cfg.IdleThresholdSec = 20
	cfg.TimeScale = 100 // the threshold is 200 ms
	n, err := StartNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	nd := n.data[0]
	state := func() disk.PowerState {
		nd.mu.Lock()
		defer nd.mu.Unlock()
		return nd.d.State()
	}
	nd.mu.Lock()
	n.armTimerLocked(nd, 0, false)
	time.Sleep(300 * time.Millisecond) // the timer fires and waits for the disk
	n.armTimerLocked(nd, 0, false)     // the service holding the disk ends
	armed := time.Now()
	nd.mu.Unlock()
	time.Sleep(50 * time.Millisecond) // the stale timer gets the disk
	if s := state(); s != disk.Idle && time.Since(armed) < 150*time.Millisecond {
		t.Fatalf("%v after %v of a 200 ms threshold", s, time.Since(armed))
	}
	for deadline := time.Now().Add(5 * time.Second); state() != disk.Standby; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the re-armed timer never spun the disk down")
		}
	}
}

// tableScript runs a script of create / write / relocate / flush /
// prefetch / delete / checkpoint steps on a live node, two bytes a step,
// then builds a second table from nothing but the bytes that reached
// manifest.json and manifest.wal. Table == fold of the log: the two must
// agree on the files, the dirty set, the buffer copies' locations, the
// cursor and the buffer occupancy. plant runs the second table with apply
// dropping the dirty bit.
func tableScript(t *testing.T, script []byte, plant bool) error {
	t.Helper()
	cfg := persistNodeConfig(t.TempDir(), "127.0.0.1:0")
	cfg.BufferCapacityBytes = 96
	n, err := StartNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for i := 0; i+1 < len(script) && i < 128; i += 2 {
		id, arg := int64(script[i+1]%8), int(script[i+1]/8)
		switch script[i] % 8 {
		case 0:
			n.create(id, int64(1+arg))
		case 1: // buffered while the 96 bytes last
			n.write(id, bytes.Repeat([]byte{script[i]}, 1+arg))
		case 2:
			n.move(id)
		case 3: // straight to the data disks
			n.cfg.WriteBuffer = false
			n.write(id, bytes.Repeat([]byte{script[i]}, 1+arg))
			n.cfg.WriteBuffer = true
		case 4:
			n.flushOne(int(id))
		case 5:
			n.prefetch(id)
		case 6:
			n.remove(id)
		default:
			n.checkpoint()
		}
	}
	if err := n.files.check(true); err != nil {
		return fmt.Errorf("live table: %w", err)
	}
	replayed := newFileTable(cfg.DataDisks, cfg.BufferCapacityBytes)
	replayed.plantDropDirty = plant
	if ck := mustRead(t, n.manifestPath()); ck != nil {
		if err := replayed.load(ck); err != nil {
			return fmt.Errorf("loading the checkpoint: %w", err)
		}
	}
	if _, err := wal.Replay(mustRead(t, filepath.Join(cfg.RootDir, "manifest.wal")), replayed.replay); err != nil {
		return fmt.Errorf("replaying the log: %w", err)
	}
	if err := replayed.check(true); err != nil {
		return fmt.Errorf("replayed table: %w", err)
	}
	if live, again := n.files.persistedState(), replayed.persistedState(); !reflect.DeepEqual(live, again) || n.files.used != replayed.used {
		return fmt.Errorf("live table %+v (occupancy %d) is not the fold of its log %+v (occupancy %d)",
			live, n.files.used, again, replayed.used)
	}
	return nil
}

// crashPrefixScript is nodeCrashHistory's script in tableScript's bytes.
var crashPrefixScript = []byte{0, 3<<3 | 0, 1, 3<<3 | 0, 0, 2<<3 | 1, 1, 2<<3 | 1, 7, 0,
	0, 2<<3 | 2, 1, 13<<3 | 2, 4, 1, 5, 1, 6, 0, 1, 2, 0, 8<<3 | 3}

func FuzzFileTableReplay(f *testing.F) {
	f.Add(crashPrefixScript)
	f.Add([]byte{0, 0, 1, 0, 7, 0, 3, 0, 5, 0, 6, 0})               // checkpoint mid-life, then direct write, prefetch, delete
	f.Add([]byte{0, 90<<1 | 1, 1, 255, 0, 2, 1, 250, 1, 255, 4, 1}) // the cap turns buffered writes away
	f.Add([]byte(nil))
	// relocations of a dirty and a prefetched copy, on both sides of a checkpoint
	f.Add([]byte{0, 0, 1, 0, 0, 1, 1, 1, 4, 1, 5, 1, 2, 0, 2, 1, 7, 0, 2, 0, 1, 1, 2, 1, 4, 1, 6, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if err := tableScript(t, script, false); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFileTableReplayPlantedBug: the replay oracle must notice a restart
// whose apply drops the dirty bit — which it only can if load and replay
// install their state through the apply the plant sits in.
func TestFileTableReplayPlantedBug(t *testing.T) {
	for what, script := range map[string][]byte{
		"from the log":        {0, 0, 1, 0},
		"from the checkpoint": {0, 0, 1, 0, 7, 0},
	} {
		if err := tableScript(t, script, false); err != nil {
			t.Fatalf("%s, no plant: %v", what, err)
		}
		if err := tableScript(t, script, true); err == nil {
			t.Errorf("%s: oracle passed a replay that ignores the dirty bit", what)
		}
	}
}

// TestTierMovementYieldsToNewerWrite: a flush, a relocation in the log or
// a prefetch copies outside every lock, so a client write can land between
// the copy and its landing. The stale copy must then be discarded —
// landed, a flush would drop the buffer's newer bytes, a relocation would
// point the file back at its old ones, and a prefetch would serve the old
// ones from the buffer from then on. That holds for a write that leaves
// the file's record as it was, too: a direct rewrite of a clean file at
// the same size.
func TestTierMovementYieldsToNewerWrite(t *testing.T) {
	for _, direct := range []string{"direct", "ON THE DATA DISK"} {
		t.Run(direct, func(t *testing.T) { tierMovementYieldsToNewerWrite(t, direct) })
	}
}

func tierMovementYieldsToNewerWrite(t *testing.T, direct string) {
	n, err := StartNode(persistNodeConfig(t.TempDir(), "127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	readBack := func(id int64, want string, fromBuffer bool) {
		t.Helper()
		r, err := n.read(id)
		if err != nil || string(r.Data) != want || r.FromBuffer != fromBuffer {
			t.Fatalf("file %d reads %q (fromBuffer=%v, err=%v), want %q (fromBuffer=%v)", id, r.Data, r.FromBuffer, err, want, fromBuffer)
		}
	}
	for id, first := range []string{"unflushed", "on the data disk"} {
		if err := n.create(int64(id), int64(len(first))); err != nil {
			t.Fatal(err)
		}
		if _, err := n.write(int64(id), []byte(first)); err != nil {
			t.Fatal(err)
		}
	}
	n.flushOne(1)
	// copyOut stages a copy of file 0's buffer copy through w.
	copyOut := func(w func(rec *fileRec, file fileRec) *extentWriter) *extentWriter {
		t.Helper()
		rec, file, src, _ := n.files.getPinned(0, 0)
		defer n.files.unpin(src)
		staged := w(rec, file)
		if err := n.copyInto(staged, file, n.bufferExtent(src, file), reqAttrib{}); err != nil {
			t.Fatal(err)
		}
		return staged
	}
	overtake := func(data string) {
		t.Helper()
		if buffered, err := n.write(0, []byte(data)); err != nil || !buffered {
			t.Fatalf("buffered=%v err=%v", buffered, err)
		}
	}

	// A flush of file 0 takes its copy; a second buffered write lands.
	flush := copyOut(func(rec *fileRec, file fileRec) *extentWriter {
		return n.newWriter(rec, n.dataExtents(file.NodeEntry))
	})
	overtake("newer")
	if err := n.land(flush, func(r *nodeRecord) { r.Dirty, r.DirtySize, r.Loc = false, 0, segLoc{} }); err == nil {
		t.Fatal("a flush landed a copy older than the file's last write")
	}
	readBack(0, "newer", true)

	// A relocation of file 0's copy in the log; a third buffered write lands.
	move := copyOut(func(rec *fileRec, file fileRec) *extentWriter {
		w, err := n.bufferWriter(rec, file.Size, 0)
		if err != nil {
			t.Fatal(err)
		}
		return w
	})
	overtake("newest")
	if err := n.land(move, nil); err == nil {
		t.Fatal("a relocation landed a copy older than the file's last write")
	}
	readBack(0, "newest", true)
	n.flushOne(0)
	readBack(0, "newest", false)

	// A prefetch of file 1 takes its copy; a direct write lands.
	rec, file, _ := n.files.get(1, 0)
	stage, err := n.bufferWriter(rec, file.Size, 0)
	if err == nil {
		err = n.copyInto(stage, file, n.dataExtents(file.NodeEntry), reqAttrib{})
	}
	if err != nil {
		t.Fatal(err)
	}
	n.cfg.WriteBuffer = false
	if _, err := n.write(1, []byte(direct)); err != nil {
		t.Fatal(err)
	}
	if err := n.land(stage, func(r *nodeRecord) { r.Entry.Prefetched = true }); err == nil {
		t.Fatal("a prefetch landed a copy older than the file's last write")
	}
	readBack(1, direct, false)
	if left := dataFiles(t, n); !reflect.DeepEqual(left, []string{"data0/f00000000.dat", "data1/f00000001.dat"}) {
		t.Fatalf("the data disks hold %v", left)
	}
	checkStorage(t, n)
}

// TestBufferedWriteLogsOneRecord: a buffered write appends exactly one
// record — its file's new place in the log — even at the size the file
// had, and a write that leaves the record as it was appends none: a direct
// rewrite of a clean file at its size. The rewrite survives a crash, read
// back from the buffer disk after a restart on what the node left.
func TestBufferedWriteLogsOneRecord(t *testing.T) {
	cfg := persistNodeConfig(t.TempDir(), "127.0.0.1:0")
	cfg.Metrics = telemetry.NewRegistry()
	n, err := StartNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	logBytes := cfg.Metrics.Counter("persist.log.bytes")
	for id := int64(0); id < 2; id++ {
		if err := n.create(id, 5); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.write(0, []byte("first")); err != nil {
		t.Fatal(err)
	}
	_, was, _ := n.files.get(0, 0)
	before := logBytes.Value()
	if buffered, err := n.write(0, []byte("again")); err != nil || !buffered {
		t.Fatalf("buffered=%v err=%v", buffered, err)
	}
	_, r := n.files.record(0)
	if grew, want := logBytes.Value()-before, int64(len(wal.AppendFrame(nil, r.encode()))); grew != want || r.Loc == was.loc {
		t.Fatalf("a same-size buffered rewrite appended %d log bytes for a record at %+v (was %+v); want one record of %d bytes at a new place",
			grew, r.Loc, was.loc, want)
	}

	n.cfg.WriteBuffer = false
	if _, err := n.write(1, []byte("clean")); err != nil {
		t.Fatal(err)
	}
	before = logBytes.Value()
	if _, err := n.write(1, []byte("CLEAN")); err != nil {
		t.Fatal(err)
	}
	if grew := logBytes.Value() - before; grew != 0 {
		t.Fatalf("a direct same-size rewrite of a clean file appended %d log bytes", grew)
	}

	crashed := t.TempDir()
	if err := os.CopyFS(crashed, os.DirFS(cfg.RootDir)); err != nil {
		t.Fatal(err)
	}
	again, err := StartNode(persistNodeConfig(crashed, "127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if r, err := again.read(0); err != nil || string(r.Data) != "again" || !r.FromBuffer {
		t.Fatalf("after a restart file 0 reads %q (fromBuffer=%v, err=%v), want the rewrite from the buffer", r.Data, r.FromBuffer, err)
	}
	if r, err := again.read(1); err != nil || string(r.Data) != "CLEAN" {
		t.Fatalf("after a restart file 1 reads %q (err=%v), want the direct rewrite", r.Data, err)
	}
}

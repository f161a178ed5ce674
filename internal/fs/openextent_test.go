package fs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"eevfs/internal/telemetry"
)

// Tests of the node's open data-disk extents (openextent.go): a reading
// takes a kept descriptor only for the file and generation it was opened
// at, so every read sees the newest acknowledged bytes whatever replaced
// them, repeated reads open nothing, and a closed node keeps nothing open.

// dataFDs counts this process's descriptors open on files under root's
// data disks, unlinked ones included.
func dataFDs(t *testing.T, root string) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("descriptors not listable here: %v", err)
	}
	n := 0
	for _, e := range ents {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
		if err == nil && strings.HasPrefix(target, filepath.Join(root, "data")) {
			n++
		}
	}
	return n
}

// readBothPlanes reads f through the RPC plane and the stream plane and
// reports the first that does not return want.
func readBothPlanes(cl *Client, want []byte) error {
	got, _, err := cl.Read("f")
	if err == nil && !bytes.Equal(got, want) {
		err = fmt.Errorf("Read returned %d bytes that are not the newest %d", len(got), len(want))
	}
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if _, _, err := cl.ReadTo("f", &buf); err != nil {
		return err
	} else if !bytes.Equal(buf.Bytes(), want) {
		return fmt.Errorf("ReadTo returned %d bytes that are not the newest %d", buf.Len(), len(want))
	}
	return nil
}

// openExtentsOracle replaces a file on a data disk in every way a node
// replaces one — an RPC write, a 32 MiB stream write into the disk's
// spare with a reading of the old copy open across it, the flush of a
// buffered write, a delete and a create, a restart — and reads it through
// both planes after each; it returns the first read that does not see the
// newest acknowledged bytes. On the way it requires that repeated reads
// open no descriptor, and after Close that none is left. plant sets
// plantAnyGen.
func openExtentsOracle(t *testing.T, plant bool) error {
	reg := telemetry.NewRegistry()
	l := startLocal(t, LocalConfig{Nodes: 1, Servers: 1, Node: func(_ int, c *NodeConfig) {
		c.InjectLatency = false
		c.WriteBuffer = true
		c.BufferCapacityBytes = 64 << 10 // a small write is buffered, a larger one is not
		c.Metrics = reg
	}})
	cl := dialLocal(t, l, ClientConfig{})
	n, root := l.Nodes[0], l.nodeCfg[0].RootDir
	n.files.ext.plantAnyGen = plant
	opens := reg.Counter("node.extent.opens")

	v := patternedContent(60, 128<<10)
	if err := cl.Create("f", v); err != nil {
		return err
	}
	if err := readBothPlanes(cl, v); err != nil {
		return err
	}
	before := opens.Value()
	for i := 0; i < 5; i++ {
		if err := readBothPlanes(cl, v); err != nil {
			return err
		}
	}
	if got := opens.Value() - before; got != 0 || dataFDs(t, root) != 1 {
		t.Fatalf("ten more reads of one file opened %d descriptors; %d are open, want 1", got, dataFDs(t, root))
	}

	v = patternedContent(61, 100<<10)
	if _, err := cl.Write("f", v); err != nil {
		return err
	}
	if err := readBothPlanes(cl, v); err != nil {
		return fmt.Errorf("after an RPC write: %w", err)
	}

	// The first large write leaves the extent it replaced as data0's or
	// data1's spare; the second stages into it, while a reading of the
	// first is open.
	const large = 32 << 20
	old := patternedContent(62, large)
	if err := writeF["WriteFrom"](cl, old); err != nil {
		return err
	}
	disk := n.data[n.Files()[0].Disk]
	spare := disk.spare.Load()
	if spare == nil {
		t.Fatal("a 32 MiB rewrite kept no spare")
	}
	spareInode, err := os.Stat(*spare)
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 64 << 10
	slow, err := cl.OpenRead("f", StreamOptions{ChunkBytes: chunk, Window: 1})
	if err != nil {
		return err
	}
	head := make([]byte, chunk)
	if _, err := io.ReadFull(slow, head); err != nil {
		return err
	}
	v = patternedContent(63, large)
	if err := writeF["WriteFrom"](cl, v); err != nil {
		return err
	}
	if cur, err := os.Stat(n.dataExtents(n.Files()[0])[0].path); err != nil || !os.SameFile(cur, spareInode) {
		t.Fatalf("the second 32 MiB write did not stage into the spare (%v)", err)
	}
	rest, err := io.ReadAll(slow)
	slow.Close()
	if err != nil {
		return err
	}
	if !bytes.Equal(append(head, rest...), old) {
		return errors.New("a reading open across a rewrite did not deliver the copy it opened")
	}
	if err := readBothPlanes(cl, v); err != nil {
		return fmt.Errorf("after a stream write into the spare, with a reading open across it: %w", err)
	}

	v = patternedContent(64, 1<<10)
	if buffered, err := cl.Write("f", v); err != nil || !buffered {
		t.Fatalf("small write: buffered %v, err %v", buffered, err)
	}
	if err := readBothPlanes(cl, v); err != nil {
		return fmt.Errorf("after a buffered write: %w", err)
	}
	n.flushOne(n.Files()[0].ID)
	if _, fromBuffer, err := cl.Read("f"); err != nil || fromBuffer {
		t.Fatalf("after the flush: from buffer %v, err %v", fromBuffer, err)
	}
	if err := readBothPlanes(cl, v); err != nil {
		return fmt.Errorf("after a flush: %w", err)
	}

	if err := cl.Delete("f"); err != nil {
		return err
	}
	if _, _, err := cl.Read("f"); !errors.Is(err, ErrFileNotFound) {
		return fmt.Errorf("a read after the delete: %v, want not found", err)
	}
	v = patternedContent(65, 96<<10)
	if err := cl.Create("f", v); err != nil {
		return err
	}
	if err := readBothPlanes(cl, v); err != nil {
		return fmt.Errorf("after a delete and a create: %w", err)
	}

	if err := l.RestartNode(0); err != nil {
		t.Fatal(err)
	}
	if err := readBothPlanes(cl, v); err != nil {
		return fmt.Errorf("after a restart: %w", err)
	}
	l.Nodes[0].Close()
	if got := dataFDs(t, root); got != 0 {
		t.Fatalf("%d descriptors of data-disk files open after Close", got)
	}
	return nil
}

// TestOpenExtentsServeTheNewestBytes: whatever replaces a file, no read
// is served from a descriptor of what it replaced. The planted cache that
// ignores generations must fail the same oracle.
func TestOpenExtentsServeTheNewestBytes(t *testing.T) {
	if err := openExtentsOracle(t, false); err != nil {
		t.Fatal(err)
	}
	err := openExtentsOracle(t, true)
	if err == nil {
		t.Fatal("oracle passed a cache that serves descriptors of replaced extents")
	}
	t.Logf("planted: %v", err)
}

// TestOpenExtentsBounded: reading more files than maxOpenExtents keeps
// that many descriptors open, the most recently read ones; deleting the
// files closes them all.
func TestOpenExtentsBounded(t *testing.T) {
	cfg := persistNodeConfig(t.TempDir(), "127.0.0.1:0")
	cfg.WriteBuffer = false
	n, err := StartNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	const files = maxOpenExtents + 40
	for id := int64(1); id <= files; id++ {
		if err := n.create(id, 16); err != nil {
			t.Fatal(err)
		}
		if _, err := n.write(id, patternedContent(id, 16)); err != nil {
			t.Fatal(err)
		}
		if _, err := n.read(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := dataFDs(t, cfg.RootDir); got != maxOpenExtents {
		t.Fatalf("%d files read, %d descriptors open, want %d", files, got, maxOpenExtents)
	}
	if rec, _, _ := n.files.get(files, 0); len(rec.open) != 1 || rec.readers != 0 {
		t.Fatalf("the last file read keeps %d descriptors and counts %d readers, want 1 and 0", len(rec.open), rec.readers)
	}
	if rec, _, _ := n.files.get(1, 0); len(rec.open) != 0 {
		t.Fatal("the least recently read file's descriptor was kept past the bound")
	}
	for id := int64(1); id <= files; id++ {
		if err := n.remove(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := dataFDs(t, cfg.RootDir); got != 0 {
		t.Fatalf("%d descriptors open after every file was deleted", got)
	}
}

// TestOpenExtentsConcurrent: readers sharing kept descriptors, a writer
// moving the generations of the files they read and more files than the
// cache holds, all at once: every read returns a whole version of its
// file, and once they are done no reading is counted and the bound holds.
func TestOpenExtentsConcurrent(t *testing.T) {
	cfg := persistNodeConfig(t.TempDir(), "127.0.0.1:0")
	cfg.WriteBuffer = false
	n, err := StartNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	const files, hot, versions, size = maxOpenExtents + 16, 4, 40, 64
	version := func(id int64, v int) []byte { return patternedContent(1000*id+int64(v), size) }
	for id := int64(1); id <= files; id++ {
		if err := n.create(id, size); err != nil {
			t.Fatal(err)
		}
		if _, err := n.write(id, version(id, 0)); err != nil {
			t.Fatal(err)
		}
	}
	isVersion := func(id int64, b []byte) bool {
		for v := 0; v <= versions; v++ {
			if bytes.Equal(b, version(id, v)) {
				return true
			}
		}
		return false
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := 1; v <= versions; v++ {
			for id := int64(1); id <= hot; id++ {
				if _, err := n.write(id, version(id, v)); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				id := int64(1 + i%hot)
				if i%3 == 0 { // a cold file, past the bound
					id = int64(hot + 1 + (g*300+i)%(files-hot))
				}
				r, err := n.read(id)
				if err != nil {
					t.Error(err)
					return
				}
				if !isVersion(id, r.Data) {
					t.Errorf("a read of file %d returned %d bytes that are no version of it", id, len(r.Data))
					return
				}
			}
		}()
	}
	wg.Wait()
	n.files.mu.Lock()
	defer n.files.mu.Unlock()
	kept := 0
	for _, rec := range n.files.files {
		if rec.readers != 0 {
			t.Errorf("file %d counts %d readers after every reading ended", rec.ID, rec.readers)
		}
		kept += len(rec.open)
	}
	if kept != n.files.ext.n || kept > maxOpenExtents {
		t.Fatalf("%d descriptors kept by the files, %d in the ring, bound %d", kept, n.files.ext.n, maxOpenExtents)
	}
}

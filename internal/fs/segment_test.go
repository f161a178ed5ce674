package fs

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"eevfs/internal/metadata"
)

// Tests of the buffer disk's log (segment.go). The crash-prefix battery
// over log and segments together is TestNodeCrashPrefixOracle.

// TestSegmentLifecycle: the tail takes copies until the next would pass
// segmentBytes, then is sealed; a larger copy gets a sealed segment of its
// own; and a sealed segment goes the moment nothing names or pins it —
// not while a writer still fills it or a reader reads it.
func TestSegmentLifecycle(t *testing.T) {
	dir := t.TempDir()
	ft := newFileTable(1, 0)
	if err := ft.openSegments(dir); err != nil {
		t.Fatal(err)
	}
	defer ft.closeSegments()
	onDisk := func() (names []string) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return names
	}
	alloc := func(size int64) (*segment, int64, bool) {
		t.Helper()
		s, off, rolled, err := ft.alloc(size)
		if err != nil {
			t.Fatal(err)
		}
		return s, off, rolled
	}
	// place names a copy in s for file id, as land does; the pin goes.
	place := func(id int, s *segment, off, size int64) {
		t.Helper()
		if err := ft.apply(nodeRecord{Entry: metadata.NodeEntry{ID: id, Size: size}, Present: true,
			Dirty: true, DirtySize: size, Loc: segLoc{Seg: s.id, Off: off}}); err != nil {
			t.Fatal(err)
		}
		ft.unpin(s)
	}

	first, off, rolled := alloc(segmentBytes - 10)
	if first.id != 1 || off != 0 || rolled {
		t.Fatalf("first copy at segment %d offset %d (rolled=%v)", first.id, off, rolled)
	}
	place(1, first, 0, segmentBytes-10)
	if s, off, rolled := alloc(10); s != first || off != segmentBytes-10 || rolled {
		t.Fatalf("a copy that fits went to segment %d offset %d (rolled=%v)", s.id, off, rolled)
	} else {
		place(2, s, off, 10)
	}
	tail, off, rolled := alloc(1)
	if tail.id != 2 || off != 0 || !rolled || !first.sealed {
		t.Fatalf("the copy past the size went to segment %d offset %d (rolled=%v, first sealed=%v)", tail.id, off, rolled, first.sealed)
	}
	own, off, rolled := alloc(segmentBytes + 1)
	if own.id != 3 || off != 0 || rolled || !own.sealed || ft.tail != tail {
		t.Fatalf("a large copy got segment %d offset %d (rolled=%v, sealed=%v)", own.id, off, rolled, own.sealed)
	}
	ft.unpin(own) // abandoned: nothing names it, and its writer is done
	ft.unpin(tail)
	if got := onDisk(); len(got) != 2 || got[0] != segmentName(1) || got[1] != segmentName(2) {
		t.Fatalf("buffer/ holds %v, want the sealed first segment and the tail", got)
	}

	// File 1 moves to the tail while a reader holds the first segment,
	// then file 2 goes: the first segment outlives both until the reader
	// lets go.
	_, _, reading, _ := ft.getPinned(1, 0)
	s, off, _ := alloc(segmentBytes - 10)
	place(1, s, off, segmentBytes-10)
	if err := ft.tombstone(2); err != nil {
		t.Fatal(err)
	}
	if reading != first || len(onDisk()) != 2 {
		t.Fatalf("the first segment went under its reader: %v", onDisk())
	}
	ft.unpin(reading)
	if got := onDisk(); len(got) != 1 || got[0] != segmentName(2) {
		t.Fatalf("buffer/ holds %v once nothing names or pins the first segment", got)
	}
	if err := ft.check(true); err != nil {
		t.Fatal(err)
	}
}

// TestCleanBoundsBufferSpace: 20 000 buffered rewrites over 64 files, most
// of them to 8 hot files, so the cold files' copies are stranded in sealed
// segments whose every other copy was rewritten. The cleaner keeps buffer/
// within cleanBelow × the live bytes + two segments, in a handful of
// files, and every file reads back its last write.
func TestCleanBoundsBufferSpace(t *testing.T) {
	cfg := persistNodeConfig(t.TempDir(), "127.0.0.1:0")
	n, err := StartNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	const files, writes, size = 64, 20000, 4 << 10
	for id := int64(0); id < files; id++ {
		if err := n.create(id, size); err != nil {
			t.Fatal(err)
		}
	}
	last := make(map[int64][]byte)
	bound := func(when int) {
		t.Helper()
		n.cleanWG.Wait()
		var live int64
		n.files.mu.Lock()
		for _, s := range n.files.segs {
			live += s.live
		}
		n.files.mu.Unlock()
		entries, err := os.ReadDir(n.buffer.dir)
		if err != nil {
			t.Fatal(err)
		}
		var physical int64
		for _, e := range entries {
			if _, ok := segmentID(e.Name()); !ok {
				t.Fatalf("after %d writes buffer/ holds %s, which is not a segment", when, e.Name())
			}
			st, err := os.Stat(filepath.Join(n.buffer.dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			physical += st.Size()
		}
		if limit := cleanBelow*live + 2*segmentBytes; physical > limit || len(entries) > 3 {
			t.Fatalf("after %d writes buffer/ holds %d bytes in %d segments for %d live bytes; want at most %d bytes",
				when, physical, len(entries), live, limit)
		}
	}
	for i := 0; i < writes; i++ {
		id := int64(i % files)
		if id >= 8 && i%97 != 0 {
			id %= 8
		}
		data := bytes.Repeat([]byte{byte(i), byte(i >> 8), byte(id)}, size/3+1)[:size]
		if buffered, err := n.write(id, data); err != nil || !buffered {
			t.Fatalf("write %d: buffered=%v err=%v", i, buffered, err)
		}
		last[id] = data
		if i%5000 == 4999 {
			bound(i + 1)
		}
	}
	bound(writes)
	checkStorage(t, n)
	for id, want := range last {
		if r, err := n.read(id); err != nil || !r.FromBuffer || !bytes.Equal(r.Data, want) {
			t.Fatalf("file %d reads back %d bytes (fromBuffer=%v, err=%v), not its last write", id, len(r.Data), r.FromBuffer, err)
		}
	}
}

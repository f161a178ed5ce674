// The node's file table (DESIGN.md §8): the storage-node half of the
// paper's two-level metadata — which disk a file is on, whether the buffer
// disk holds a prefetched copy or an unflushed write of it and where in its
// log (segment.go), when it is expected next. One record per file, one
// lock, and one writer of what is persisted: apply, which a live mutation
// (Node.transition) and a restart (load, replay) both go through, so the
// table is the fold of the log by construction.
package fs

import (
	"fmt"
	"os"
	"sort"
	"sync"

	"eevfs/internal/metadata"
	"eevfs/internal/proto"
)

// fileRec is everything a node knows about one of its files. The entry,
// unflushed and loc are persisted; the rest lives and dies with the
// process. ID never changes and may be read without the table's lock.
type fileRec struct {
	metadata.NodeEntry
	unflushed int64   // size of a buffered write not yet on the data disks; 0: clean
	loc       segLoc  // where the buffer disk's copy lies in its log
	reserved  int64   // buffer-disk bytes promised to writes and prefetches in flight
	hint      float64 // server-forwarded mean inter-arrival (model sec); 0: none
	last      float64 // model time of the last request; 0: none since start
	gen       uint64  // bumped by every apply: has the file moved since it was looked up?
	readers   int     // readings of the data-disk copy open (extent.go): no commit recycles under them
	// open holds the data-disk descriptors kept for readings to come, all
	// opened at gen (openextent.go); they count as no reader.
	open []*openExtent
}

// inBuffer reports whether the buffer disk holds the file's newest copy.
func (f *fileRec) inBuffer() bool { return f.Prefetched || f.unflushed > 0 }

// held is what the file occupies on the buffer disk, promises included.
func (f *fileRec) held() int64 {
	h := f.unflushed + f.reserved
	if f.Prefetched {
		h += f.Size
	}
	return h
}

type fileTable struct {
	capacity int64 // the buffer disk's byte limit; 0: unbounded
	// plantDropDirty is the replay oracles' planted bug: apply forgets a
	// record's unflushed write. Tests only.
	plantDropDirty bool
	// plantRecycleUnderReader is the recycling oracle's planted bug: isRead
	// reports no reader, so a commit keeps a spare a reading has open.
	// Tests only.
	plantRecycleUnderReader bool

	mu     sync.Mutex
	ext    openExtents // the data-disk descriptors kept open (openextent.go)
	files  map[int]*fileRec
	used   int64 // buffer-disk occupancy: the sum of every record's held()
	cursor int   // round-robin placement cursor for creates
	// wanted[d] indexes the hinted files only data disk d can serve (no
	// copy in the buffer): what the idle policy asks about when it decides
	// whether d may sleep.
	wanted []map[int]*fileRec
	// The buffer disk's log (segment.go): its directory, its segments by
	// id, the one new copies are appended to, and the next id to create.
	dir     string
	segs    map[uint64]*segment
	tail    *segment
	nextSeg uint64
}

func newFileTable(dataDisks int, capacity int64) *fileTable {
	t := &fileTable{capacity: capacity, files: make(map[int]*fileRec), wanted: make([]map[int]*fileRec, dataDisks),
		segs: make(map[uint64]*segment), nextSeg: 1}
	for d := range t.wanted {
		t.wanted[d] = make(map[int]*fileRec)
	}
	return t
}

// validate is what a record passes before it is logged or installed: a
// file has a size and a data disk the node has, a location a copy.
func (t *fileTable) validate(r nodeRecord) error {
	switch {
	case r.Present && (r.Entry.Size <= 0 || r.Entry.Disk < 0 || r.Entry.Disk >= len(t.wanted)):
		return fmt.Errorf("fs: file %d of %d bytes on disk %d, node has %d",
			r.Entry.ID, r.Entry.Size, r.Entry.Disk, len(t.wanted))
	case r.badLoc():
		return fmt.Errorf("fs: file %d's buffer copy placed at %+v", r.Entry.ID, r.Loc)
	}
	return nil
}

// apply installs r, the persisted post-state of one file id (or its
// tombstone) and of the placement cursor, and keeps every segment's live
// bytes: the bytes of the buffer copy r names move in, those of the copy
// the record named before move out — and a sealed segment left with none
// that nothing pins goes. It is idempotent, and what the process alone
// knows about a file that stays — hint, last access, reservations — is
// kept.
func (t *fileTable) apply(r nodeRecord) error {
	shut, err := t.applyHolding(r)
	closeAll(shut)
	return err
}

// applyHolding is apply handing back the file's kept descriptors, which no
// reading may take at its next generation (openextent.go), for the caller
// to close: transition does once it has let go of persistMu.
func (t *fileTable) applyHolding(r nodeRecord) (shut []*os.File, err error) {
	if err := t.validate(r); err != nil {
		return nil, err
	}
	t.mu.Lock()
	var was *segment // the one the old record names
	defer func() {
		gone := was != nil && t.reapLocked(was)
		t.mu.Unlock()
		if gone {
			was.remove()
		}
	}()
	t.cursor = r.NextDisk
	rec := t.files[r.Entry.ID]
	if rec != nil {
		shut = t.dropFileLocked(rec, nil)
		was = t.segs[rec.loc.Seg]
		t.used -= rec.held()
		t.addLive(rec.loc, -rec.Size)
		delete(t.wanted[rec.Disk], rec.ID)
	}
	if !r.Present {
		delete(t.files, r.Entry.ID)
		return shut, nil
	}
	if rec == nil {
		rec = &fileRec{NodeEntry: metadata.NodeEntry{ID: r.Entry.ID}}
		t.files[r.Entry.ID] = rec
	}
	rec.Size, rec.Disk, rec.Prefetched, rec.unflushed, rec.loc = r.Entry.Size, r.Entry.Disk, r.Entry.Prefetched, 0, r.Loc
	rec.gen++
	if r.Dirty && !t.plantDropDirty {
		rec.unflushed = r.DirtySize
	}
	t.used += rec.held()
	t.addLive(rec.loc, rec.Size)
	t.index(rec)
	return shut, nil
}

// index keeps rec's membership in wanted current. Callers hold mu.
func (t *fileTable) index(rec *fileRec) {
	if rec.hint > 0 && !rec.inBuffer() {
		t.wanted[rec.Disk][rec.ID] = rec
	} else {
		delete(t.wanted[rec.Disk], rec.ID)
	}
}

// record returns a file's record (nil: no such file) and its persisted
// state the way the log writes it.
func (t *fileTable) record(id int) (*fileRec, nodeRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := nodeRecord{Entry: metadata.NodeEntry{ID: id}, NextDisk: t.cursor}
	rec := t.files[id]
	if rec != nil {
		r.Entry, r.Present, r.Loc = rec.NodeEntry, true, rec.loc
		r.Dirty, r.DirtySize = rec.unflushed > 0, rec.unflushed
	}
	return rec, r
}

// get looks a file up: rec is its identity, for a later transition to
// check it is still the same file; was is a copy to read without the lock.
// A positive now timestamps the access.
func (t *fileTable) get(id int, now float64) (rec *fileRec, was fileRec, ok bool) {
	rec, was, _, ok = t.lookup(id, now, false)
	return rec, was, ok
}

// getPinned is get for an operation that reads the file's buffer copy: it
// also pins the segment holding it (nil: the buffer disk holds none),
// under the lock that reads its location, so the segment outlives the
// read. The caller unpins it.
func (t *fileTable) getPinned(id int, now float64) (*fileRec, fileRec, *segment, bool) {
	return t.lookup(id, now, true)
}

func (t *fileTable) lookup(id int, now float64, pin bool) (rec *fileRec, was fileRec, s *segment, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if rec = t.files[id]; rec == nil {
		return nil, fileRec{}, nil, false
	}
	if now > 0 {
		rec.last = now
	}
	if pin {
		if s = t.segs[rec.loc.Seg]; s != nil {
			s.pins++
		}
	}
	return rec, *rec, s, true
}

// reserve promises size bytes of the buffer disk to an operation on rec, if
// the file is still there and they fit. The promise counts as occupancy
// until release hands it back — after the transition that turned it into
// an unflushed write or a prefetched copy, or when the operation gives up.
func (t *fileTable) reserve(rec *fileRec, size int64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.files[rec.ID] != rec || (t.capacity > 0 && t.used+size > t.capacity) {
		return false
	}
	rec.reserved += size
	t.used += size
	return true
}

// addReader counts a reading of rec's data-disk copy in (d = 1) or out
// (d = -1).
func (t *fileTable) addReader(rec *fileRec, d int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec.readers += d
}

// isRead reports whether a reading of rec's data-disk copy is open.
func (t *fileTable) isRead(rec *fileRec) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return rec.readers > 0 && !t.plantRecycleUnderReader
}

func (t *fileTable) release(rec *fileRec, size int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec.reserved -= size
	if t.files[rec.ID] == rec { // a deleted record took its promises with it
		t.used -= size
	}
}

// setHints installs server-forwarded access patterns; scale converts their
// real seconds to model time. A non-positive interval clears a file's
// hint, and a hint for a file the node does not hold is dropped.
func (t *fileTable) setHints(hints []proto.FileHint, scale float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, h := range hints {
		if rec := t.files[int(h.FileID)]; rec != nil {
			rec.hint = max(h.MeanIntervalSec, 0) * scale
			t.index(rec)
		}
	}
}

// nextWanted is the model time data disk d is next expected to be asked
// for: the earliest hinted next access among the files only it can serve
// (one not requested since start counts from now). ok is false when no
// hint applies and the reactive threshold decides alone.
func (t *fileTable) nextWanted(d int, now float64) (at float64, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, rec := range t.wanted[d] {
		next := rec.last + rec.hint
		if rec.last == 0 {
			next = now + rec.hint
		}
		if !ok || next < at {
			at, ok = next, true
		}
	}
	return at, ok
}

// manifest snapshots what the table persists, in id order.
func (t *fileTable) manifest() nodeManifest {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := nodeManifest{Version: manifestVersion, NextDisk: t.cursor, Files: make([]metadata.NodeEntry, 0, len(t.files))}
	for _, rec := range t.files {
		m.Files = append(m.Files, rec.NodeEntry)
		if rec.unflushed > 0 {
			m.Dirty = append(m.Dirty, dirtyEntry{ID: rec.ID, Size: rec.unflushed})
		}
		if rec.loc.Seg != 0 {
			m.Buffer = append(m.Buffer, bufferEntry{ID: rec.ID, Segment: rec.loc.Seg, Offset: rec.loc.Off})
		}
	}
	sort.Slice(m.Files, func(i, j int) bool { return m.Files[i].ID < m.Files[j].ID })
	sort.Slice(m.Dirty, func(i, j int) bool { return m.Dirty[i].ID < m.Dirty[j].ID })
	sort.Slice(m.Buffer, func(i, j int) bool { return m.Buffer[i].ID < m.Buffer[j].ID })
	return m
}

// load installs a checkpoint, one apply per file.
func (t *fileTable) load(raw []byte) error {
	m, err := decodeNodeManifest(raw)
	if err != nil {
		return err
	}
	unflushed := make(map[int]int64, len(m.Dirty))
	for _, d := range m.Dirty {
		unflushed[d.ID] = d.Size
	}
	locs := make(map[int]segLoc, len(m.Buffer))
	for _, b := range m.Buffer {
		locs[b.ID] = segLoc{Seg: b.Segment, Off: b.Offset}
	}
	for _, e := range m.Files {
		size := unflushed[e.ID]
		r := nodeRecord{Entry: e, Present: true, Dirty: size > 0, DirtySize: size, NextDisk: m.NextDisk, Loc: locs[e.ID]}
		if err := t.apply(r); err != nil {
			return err
		}
	}
	t.mu.Lock()
	t.cursor = m.NextDisk // a checkpoint without files still carries the cursor
	t.mu.Unlock()
	return nil
}

// replay applies one log record on top of the checkpoint.
func (t *fileTable) replay(raw []byte) error {
	r, err := decodeNodeRecord(raw)
	if err != nil {
		return err
	}
	return t.apply(r)
}

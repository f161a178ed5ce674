// The buffer disk's log (DESIGN.md §19). PAPER.md §1's buffer disks are
// "always-on, log-structured", and so is this one: every copy it holds — a
// buffered client write or a prefetched replica — is a byte range appended
// to the tail of one segment file under buffer/, written with one pwrite
// and read with pread through a descriptor that stays open. A file's
// record names its copy by location, (segment, offset); the copy's length
// is the file's size. The segment size and the cleaning threshold are
// constants, and the cleaner is started by the seal that makes work for it.
package fs

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

const (
	// segmentBytes is the size at which the tail is sealed and a new one
	// begun. A copy larger than that gets a segment of its own.
	segmentBytes = 16 << 20
	// cleanBelow: the cleaner compacts a sealed segment whose live bytes are
	// under 1/cleanBelow of its length, which keeps buffer/ within
	// cleanBelow × the live bytes + the tail.
	cleanBelow = 4
)

// segLoc is where a copy lies in the log; Seg 0 means no copy there.
type segLoc struct {
	Seg uint64
	Off int64
}

// segment is one file of the log. Its counters belong to the file table
// and are kept under the table's lock; they decide when it goes. A segment
// is unlinked once it is sealed, no record names a byte of it, and nothing
// pins it: no writer filling a range of it, no reader reading one.
type segment struct {
	id uint64
	f  *os.File // nil: named by a replayed record, but not on disk

	length int64 // bytes handed out; once every pwrite is done, the file's size
	live   int64 // bytes records name, kept by fileTable.apply
	pins   int
	sealed bool // no longer the tail: nothing more is allocated in it
}

func segmentName(id uint64) string { return fmt.Sprintf("%08d.seg", id) }

// segmentID parses a segment's file name; anything else under buffer/ is
// not part of the log.
func segmentID(name string) (uint64, bool) {
	digits, ok := strings.CutSuffix(name, ".seg")
	id, err := strconv.ParseUint(digits, 10, 64)
	return id, ok && err == nil && id > 0 && segmentName(id) == name
}

// remove closes and unlinks a segment nothing needs any more. A failed
// unlink leaves a file no record names, which the next start removes.
func (s *segment) remove() {
	s.f.Close()
	os.Remove(s.f.Name())
}

// openSegments installs the segments under dir before the checkpoint and
// log that name them are read, unsealed — so none goes while replay moves
// live bytes — until restored seals the ones it keeps.
func (t *fileTable) openSegments(dir string) error {
	t.dir = dir
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		id, ok := segmentID(e.Name())
		if !ok {
			continue
		}
		info, err := e.Info()
		var f *os.File
		if err == nil {
			f, err = os.OpenFile(filepath.Join(dir, e.Name()), os.O_RDWR, 0)
		}
		if err != nil {
			t.closeSegments()
			return fmt.Errorf("fs: opening buffer-disk segment: %w", err)
		}
		t.segs[id] = &segment{id: id, f: f, length: info.Size()}
		t.nextSeg = max(t.nextSeg, id+1)
	}
	return nil
}

// closeSegments closes every segment's descriptor, unlinking nothing.
func (t *fileTable) closeSegments() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.segs {
		if s.f != nil {
			s.f.Close()
		}
	}
}

// addLive moves n bytes a record names into (or, negative, out of) the
// segment at loc. A segment no file backs is a placeholder until restored
// checks that nothing names it any more. Callers hold mu.
func (t *fileTable) addLive(loc segLoc, n int64) {
	if loc.Seg == 0 {
		return
	}
	s := t.segs[loc.Seg]
	if s == nil {
		s = &segment{id: loc.Seg}
		t.segs[loc.Seg] = s
		t.nextSeg = max(t.nextSeg, loc.Seg+1)
	}
	s.live += n
}

// reapLocked drops s from the table if it is done with; the caller removes
// it once mu is released. Callers hold mu.
func (t *fileTable) reapLocked(s *segment) bool {
	if !s.sealed || s.live != 0 || s.pins != 0 {
		return false
	}
	delete(t.segs, s.id)
	return true
}

// alloc hands out size bytes at the tail, pinned until the writer filling
// them lands or abandons them. rolled reports that the tail was sealed to
// make room.
func (t *fileTable) alloc(size int64) (s *segment, off int64, rolled bool, err error) {
	t.mu.Lock()
	var done *segment
	defer func() {
		t.mu.Unlock()
		if done != nil {
			done.remove()
		}
	}()
	s = t.tail
	if size > segmentBytes || s == nil || s.length+size > segmentBytes {
		if s, err = t.createLocked(); err != nil {
			return nil, 0, false, err
		}
		if size > segmentBytes {
			s.sealed = true // a segment of its own, never the tail
		} else {
			if old := t.tail; old != nil {
				old.sealed, rolled = true, true
				if t.reapLocked(old) {
					done = old
				}
			}
			t.tail = s
		}
	}
	off = s.length
	s.length += size
	s.pins++
	return s, off, rolled, nil
}

// createLocked starts a segment file. Callers hold mu.
func (t *fileTable) createLocked() (*segment, error) {
	id := t.nextSeg
	f, err := os.OpenFile(filepath.Join(t.dir, segmentName(id)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fs: starting a buffer-disk segment: %w", err)
	}
	t.nextSeg++
	s := &segment{id: id, f: f}
	t.segs[id] = s
	return s, nil
}

// unpin releases a pin taken by alloc or getPinned; the last pin on
// a segment that is done with removes it. A nil s is no pin.
func (t *fileTable) unpin(s *segment) {
	if s == nil {
		return
	}
	t.mu.Lock()
	s.pins--
	done := t.reapLocked(s)
	t.mu.Unlock()
	if done {
		s.remove()
	}
}

// stranded snapshots the records whose buffer copy lies in a sealed
// segment less than 1/cleanBelow live: what the cleaner moves to the tail.
func (t *fileTable) stranded() []fileRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []fileRec
	for _, rec := range t.files {
		if s := t.segs[rec.loc.Seg]; s != nil && s.sealed && s.live*cleanBelow < s.length {
			out = append(out, *rec)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].loc, out[j].loc
		return a.Seg < b.Seg || a.Seg == b.Seg && a.Off < b.Off
	})
	return out
}

// restored ends the load and replay of a restart. Bytes that passed their
// checksum and still make no sense refuse the start (DESIGN.md §8): a
// record whose copy lies past the end of its segment, or in a segment that
// is not on disk; and a copy with no place in the log (errPreLog), judged
// on what replay ends with, since a root moved into the log and killed
// before its next checkpoint replays such records first. Nothing on disk
// has changed by then. Then every segment no record names goes, and the
// rest are sealed: new copies go to a fresh tail.
func (t *fileTable) restored() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, rec := range t.files {
		if rec.loc.Seg == 0 {
			if rec.inBuffer() {
				return fmt.Errorf("file %d: %w", rec.ID, errPreLog)
			}
			continue
		}
		switch s := t.segs[rec.loc.Seg]; {
		case s.f == nil:
			return fmt.Errorf("fs: file %d's buffer copy is in segment %d, which is missing", rec.ID, s.id)
		case rec.loc.Off+rec.Size > s.length:
			return fmt.Errorf("fs: file %d's buffer copy [%d,+%d) runs past the end of segment %d (%d bytes)",
				rec.ID, rec.loc.Off, rec.Size, s.id, s.length)
		}
	}
	for id, s := range t.segs {
		s.sealed = true
		if s.live == 0 {
			delete(t.segs, id)
			if s.f != nil {
				s.remove()
			}
		}
	}
	return nil
}

// bufferExtent is a file's copy in the log, in segment s.
func (n *Node) bufferExtent(s *segment, file fileRec) []extent {
	return []extent{{nd: n.buffer, seg: s, off: file.loc.Off, size: file.Size}}
}

// bufferWriter allocates size bytes at the log's tail for a copy of rec's
// file and returns the writer that fills them. It takes over reserved
// bytes of the buffer disk's capacity, handed back by land or abandon — or
// here, when no segment could be had.
func (n *Node) bufferWriter(rec *fileRec, size, reserved int64) (*extentWriter, error) {
	s, off, rolled, err := n.files.alloc(size)
	if rolled {
		n.startCleaner()
	}
	if err != nil {
		if reserved > 0 {
			n.files.release(rec, reserved)
		}
		return nil, err
	}
	return &extentWriter{files: n.files, rec: rec, reserved: reserved, pinned: s,
		exts: []extent{{nd: n.buffer, seg: s, off: off, size: size}}}, nil
}

// relocate moves a file's buffer copy, read from src, to the log's tail: a
// buffer-to-buffer tier movement that, like a flush or a prefetch, lands
// only if no write has overtaken it. It is background work on the buffer
// disk.
func (n *Node) relocate(rec *fileRec, file fileRec, src []extent) error {
	w, err := n.bufferWriter(rec, file.Size, 0)
	if err != nil {
		return err
	}
	if err := n.copyInto(w, file, src, reqAttrib{}); err != nil {
		return err
	}
	return n.land(w, nil)
}

// startCleaner answers a seal of the tail: one goroutine, which Close
// waits for, runs a pass of the cleaner once any pass already running is
// done — so a seal that comes in during a pass is not missed.
func (n *Node) startCleaner() {
	n.cleanWG.Add(1)
	go func() {
		defer n.cleanWG.Done()
		n.cleanMu.Lock()
		defer n.cleanMu.Unlock()
		n.clean()
	}()
}

// clean compacts every sealed segment that is less than 1/cleanBelow live,
// moving what is live in it to the tail; the last copy to leave takes the
// segment with it.
func (n *Node) clean() {
	for _, was := range n.files.stranded() {
		rec, file, src, ok := n.files.getPinned(was.ID, 0)
		if ok && file.loc == was.loc {
			if err := n.relocate(rec, file, n.bufferExtent(src, file)); err != nil {
				n.logger.Printf("moving file %d's buffer copy out of segment %d: %v", file.ID, file.loc.Seg, err)
			}
		}
		n.files.unpin(src)
	}
}

// sweep removes the ".part" siblings a crash mid-write left in dir:
// nothing references them, a write is acknowledged only after its rename.
func sweep(dir string) error {
	files, err := os.ReadDir(dir)
	for _, f := range files {
		if strings.HasSuffix(f.Name(), ".part") {
			err = errors.Join(err, os.Remove(filepath.Join(dir, f.Name())))
		}
	}
	return err
}

// The node's open data-disk extents (DESIGN.md §19): a reading takes an
// extent's descriptor from here instead of opening and closing the file,
// so a small read of a data disk costs one pread. Descriptors belong to
// the file table because what keeps them safe is its state: an entry
// serves only the record and generation it was opened at, and apply
// drops a file's entries in the critical section that moves its
// generation — so no reading takes a descriptor of an extent a write has
// replaced, or one whose inode a commit may keep as its disk's spare.
package fs

import (
	"os"

	"eevfs/internal/telemetry"
)

// maxOpenExtents bounds the descriptors a node keeps open for readings to
// come: a few hundred files' worth, well under the process's limit with
// several nodes in one process. Past it the least recently used goes.
const maxOpenExtents = 512

// openExtent is one open data-disk extent: the descriptor, the path it
// was opened at, and the record and generation of the file as it stood
// before the open. users counts the readings using f now; cached is
// whether the table still holds it for later ones. Once it is neither, f
// is closed.
type openExtent struct {
	f      *os.File
	path   string
	rec    *fileRec
	gen    uint64
	users  int
	cached bool
	// The table's recency ring, most recently used first; cached only.
	prev, next *openExtent
}

// openExtents is the table's side of the cache: the ring's sentinel, how
// many entries it holds and whether the node has closed it, guarded by the
// table's mu, and the count of files actually opened (node.extent.opens).
type openExtents struct {
	ring   openExtent
	n      int
	closed bool
	opens  *telemetry.Counter
	// plantAnyGen is the cache oracle's planted bug: entries are taken and
	// kept whatever generation the file is at. Tests only.
	plantAnyGen bool
}

// current reports whether e may serve a reading of rec now. Callers hold mu.
func (t *fileTable) current(e *openExtent, rec *fileRec) bool {
	return e.rec == rec && (e.gen == rec.gen || t.ext.plantAnyGen)
}

// takeExtent returns an open descriptor of path, an extent of rec's
// data-disk copy: a cached one when the cache holds one current for rec,
// else a new one. reader counts the reading in among rec's readers first
// (the first extent of a reading; see extentWriter.retire). Pair with
// putExtent.
func (t *fileTable) takeExtent(rec *fileRec, path string, reader bool) (*openExtent, error) {
	t.mu.Lock()
	if reader {
		rec.readers++
	}
	for _, e := range rec.open {
		if e.path == path && t.current(e, rec) {
			e.users++
			t.ext.unlink(e)
			t.ext.pushFront(e)
			t.mu.Unlock()
			return e, nil
		}
	}
	gen := rec.gen
	t.mu.Unlock()
	f, err := os.Open(path)
	if err != nil {
		if reader {
			t.addReader(rec, -1)
		}
		return nil, err
	}
	t.ext.opens.Inc()
	return &openExtent{f: f, path: path, rec: rec, gen: gen, users: 1}, nil
}

// putExtent ends a reading's use of e, counting the reading out of its
// file's readers if reader. A new descriptor is kept for later readings
// if it is still current for its file and no other descriptor of the
// extent is kept; what is neither kept nor in use is closed.
func (t *fileTable) putExtent(e *openExtent, reader bool) {
	var shut []*os.File
	t.mu.Lock()
	if reader {
		e.rec.readers--
	}
	if e.users--; e.users == 0 && !e.cached {
		if t.keepable(e) {
			e.cached = true
			e.rec.open = append(e.rec.open, e)
			t.ext.pushFront(e)
			if t.ext.n > maxOpenExtents {
				shut = t.dropLocked(t.ext.ring.prev, shut)
			}
		} else {
			shut = append(shut, e.f)
		}
	}
	t.mu.Unlock()
	closeAll(shut)
}

// keepable reports whether the cache may take e: the node is open, e's
// file is still the table's at the generation e was opened at, and no
// other descriptor of its extent is kept. Callers hold mu.
func (t *fileTable) keepable(e *openExtent) bool {
	if t.ext.closed || t.files[e.rec.ID] != e.rec || !t.current(e, e.rec) {
		return false
	}
	for _, o := range e.rec.open {
		if o.path == e.path {
			return false
		}
	}
	return true
}

// dropLocked takes e out of the cache, appending its descriptor to shut
// when no reading uses it; the last reading that does closes it.
func (t *fileTable) dropLocked(e *openExtent, shut []*os.File) []*os.File {
	t.ext.unlink(e)
	e.cached = false
	open := e.rec.open
	for i, o := range open {
		if o == e {
			e.rec.open = append(open[:i], open[i+1:]...)
			break
		}
	}
	if e.users == 0 {
		shut = append(shut, e.f)
	}
	return shut
}

// dropFileLocked takes every kept descriptor of rec out of the cache: its
// generation is about to move, or it is going.
func (t *fileTable) dropFileLocked(rec *fileRec, shut []*os.File) []*os.File {
	for len(rec.open) > 0 {
		shut = t.dropLocked(rec.open[len(rec.open)-1], shut)
	}
	return shut
}

// closeExtents empties the cache for good, closing every descriptor no
// reading uses (Node.Close: none does).
func (t *fileTable) closeExtents() {
	var shut []*os.File
	t.mu.Lock()
	t.ext.closed = true
	for t.ext.n > 0 {
		e := t.ext.ring.next
		shut = t.dropLocked(e, shut)
	}
	t.mu.Unlock()
	closeAll(shut)
}

func closeAll(files []*os.File) {
	for _, f := range files {
		f.Close()
	}
}

func (c *openExtents) pushFront(e *openExtent) {
	if c.ring.next == nil { // the empty ring
		c.ring.next, c.ring.prev = &c.ring, &c.ring
	}
	e.prev, e.next = &c.ring, c.ring.next
	e.prev.next, e.next.prev = e, e
	c.n++
}

func (c *openExtents) unlink(e *openExtent) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
	c.n--
}

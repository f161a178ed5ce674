// The node's storage engine (DESIGN.md §19). A file copy is a list of
// extents: one on the buffer disk, or one per stripe chunk on the data
// disks. Everything that moves file bytes — RPC handlers, stream
// handlers, prefetch, flush — goes through the pieces here: source picks
// the copy to read, sink where a write lands, charge runs the disk model,
// reading.emit moves bytes out and extentWriter moves them in. The wire
// planes above differ only in how they frame the bytes.
package fs

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"

	"eevfs/internal/metadata"
	"eevfs/internal/proto"
)

// extent is one on-disk piece of a file copy: the disk it lives on (for
// latency and energy charging), where its bytes are — a file of its own on
// a data disk, a range of a segment of the buffer disk's log — and its
// length.
type extent struct {
	nd   *nodeDisk
	path string   // a data disk's extent: its file
	seg  *segment // the buffer disk's copy: the segment holding it, from off
	off  int64
	size int64
}

// extentPath is where nd keeps a file's bytes: dir/f<id>.dat for a whole
// copy (chunk < 0), dir/f<id>.c<chunk>.dat for one stripe chunk. Every
// read builds one, so it is assembled in a stack buffer with strconv, not
// by fmt (whose padding grew the handler goroutines' stacks) and Join.
func extentPath(nd *nodeDisk, id int64, chunk int) string {
	b := append(make([]byte, 0, 96), nd.dir...)
	b = appendZeroPadded(append(b, os.PathSeparator, 'f'), id, 8)
	if chunk >= 0 {
		b = appendZeroPadded(append(b, ".c"...), int64(chunk), 3)
	}
	return string(append(b, ".dat"...))
}

// appendZeroPadded appends v in decimal, zero-padded to width bytes
// including any sign: the bytes fmt's %0<width>d gives.
func appendZeroPadded(b []byte, v int64, width int) []byte {
	u := uint64(v)
	if v < 0 {
		b, u, width = append(b, '-'), -u, width-1
	}
	digits := 1
	for x := u; x >= 10; x /= 10 {
		digits++
	}
	for ; digits < width; digits++ {
		b = append(b, '0')
	}
	return strconv.AppendUint(b, u, 10)
}

// dataExtents lists the data-disk extents of entry in byte order: the
// whole file on its primary disk, or — when striping is on and the file
// is longer than one chunk — stripe chunks round-robined across the
// spindles. The layout is a function of the entry alone: the data disks
// hold either nothing for a file or exactly dataExtents(entry), because
// a write that changes the size removes what it does not reuse (sink).
func (n *Node) dataExtents(entry metadata.NodeEntry) []extent {
	stripe := n.cfg.StripeChunkBytes
	if stripe <= 0 || entry.Size <= stripe || len(n.data) < 2 {
		nd := n.data[entry.Disk]
		return []extent{{nd: nd, path: extentPath(nd, int64(entry.ID), -1), size: entry.Size}}
	}
	var exts []extent
	for off := int64(0); off < entry.Size; off += stripe {
		nd := n.data[(entry.Disk+len(exts))%len(n.data)]
		exts = append(exts, extent{nd: nd, path: extentPath(nd, int64(entry.ID), len(exts)),
			size: min(stripe, entry.Size-off)})
	}
	return exts
}

// removeExtents deletes the files behind exts; missing ones are fine.
func removeExtents(exts []extent) {
	for _, e := range exts {
		os.Remove(e.path)
	}
}

// wholeFile as a read length means "through the end of the file".
const wholeFile = -1

// reading is one read resolved by source: the extents of the copy that
// serves it, the first one open, and the byte range wanted from them.
type reading struct {
	exts        []extent
	first       *openExtent // exts[0] when it is a file of its own; a segment is open already
	rec         *fileRec    // the file read: while first is open, one of its readers
	off, length int64
	fromBuffer  bool // source pinned exts[0].seg
}

// open takes the first extent's descriptor if it is a file of its own —
// the existence check before any disk is charged — from the node's open
// extents (openextent.go), counting itself among the file's readers first,
// so that no commit recycles an inode it may have open (land).
func (r *reading) open(t *fileTable) (err error) {
	if r.exts[0].seg != nil {
		return nil
	}
	r.first, err = t.takeExtent(r.rec, r.exts[0].path, true)
	return err
}

// close releases what source took for the reading: the first extent's
// descriptor and its place among the file's readers, or the pin on the
// segment holding the buffer copy.
func (r reading) close(t *fileTable) {
	if r.first != nil {
		t.putExtent(r.first, true)
	}
	if r.fromBuffer {
		t.unpin(r.exts[0].seg)
	}
}

// source resolves a read of bytes [off, off+length) of a file to its
// newest copy: the buffer disk's when it holds one (a prefetched replica
// or an unflushed buffered write), read where the log has it, the data
// disks' otherwise. A file with no bytes anywhere fails before any disk is
// charged. source counts the buffer hit or miss, timestamps the access and
// charges the disks the range touches; the caller closes the reading.
func (n *Node) source(fileID, off, length int64, ra reqAttrib) (reading, error) {
	rec, file, seg, ok := n.files.getPinned(int(fileID), float64(n.clock.Now()))
	if !ok {
		return reading{}, fmt.Errorf("fs: read of unknown file %d: %w", fileID, ErrFileNotFound)
	}
	if length == wholeFile {
		off, length = 0, file.Size
	}
	if off < 0 || length < 0 || off > file.Size || length > file.Size-off {
		n.files.unpin(seg)
		return reading{}, fmt.Errorf("fs: range [%d,+%d) outside file %d of %d bytes",
			off, length, fileID, file.Size)
	}
	r := reading{rec: rec, off: off, length: length, fromBuffer: seg != nil}
	if r.fromBuffer {
		r.exts = n.bufferExtent(seg, file)
		n.hitsC.Inc()
	} else {
		r.exts = n.dataExtents(file.NodeEntry)
		if err := r.open(n.files); err != nil {
			return reading{}, err
		}
		n.missesC.Inc()
	}
	n.charge(r.exts, off, length, false, ra)
	return r, nil
}

// sink resolves a write of size bytes to where it lands — the tail of the
// buffer disk's log when write buffering is on and the table grants the
// room (the data disks stay asleep; the flush is lazy), the data disks at
// the new size's layout otherwise — timestamps the access and charges the
// disks. A write that changes the size invalidates the old data layout, so
// the writer takes it as prev — a buffered write too: when flushOne runs,
// the entry has the new size and can no longer name the old extents.
func (n *Node) sink(fileID, size int64, ra reqAttrib) (*extentWriter, error) {
	rec, file, ok := n.files.get(int(fileID), float64(n.clock.Now()))
	if !ok {
		return nil, fmt.Errorf("fs: write to unknown file %d", fileID)
	}
	if size <= 0 {
		return nil, fmt.Errorf("fs: write of file %d with size %d", fileID, size)
	}
	var w *extentWriter
	if n.cfg.WriteBuffer && n.files.reserve(rec, size) {
		var err error
		if w, err = n.bufferWriter(rec, size, size); err != nil {
			return nil, err
		}
		w.buffered = true
	} else {
		entry := file.NodeEntry
		entry.Size = size
		w = n.newWriter(rec, n.dataExtents(entry))
	}
	w.size = size
	if size != file.Size {
		w.prev = n.dataExtents(file.NodeEntry)
	}
	n.charge(w.exts, 0, size, true, ra)
	return w, nil
}

// charge runs the disk model for bytes [off, off+length) of a copy, one
// service per touched extent: wake the spindle if it sleeps, charge the
// service time, attribute the energy, rearm the idle timer. Writes to the
// buffer disk append to its log (sequential cost); everything else pays
// the random-access cost. The spindles of a striped copy are charged in
// parallel, each taking its own extents in file order, and every nd.mu is
// released before charge returns: callers move the real bytes afterwards,
// at wire speed, holding no disk.
func (n *Node) charge(exts []extent, off, length int64, write bool, ra reqAttrib) {
	if ra.plane != "" && ra.plane == n.plantSkipCharge.Load() {
		return
	}
	if len(exts) == 1 { // the common case stays on the caller's goroutine
		n.chargeOn(exts[0].nd, exts, off, length, write, ra)
		return
	}
	var wg sync.WaitGroup
	for _, nd := range n.data {
		wg.Add(1)
		go func(nd *nodeDisk) {
			defer wg.Done()
			n.chargeOn(nd, exts, off, length, write, ra)
		}(nd)
	}
	wg.Wait()
}

// chargeOn is charge's share for one disk: the touched extents on nd.
func (n *Node) chargeOn(nd *nodeDisk, exts []extent, off, length int64, write bool, ra reqAttrib) {
	op := "disk.read"
	if write {
		op = "disk.write"
	}
	pos := int64(0)
	for _, e := range exts {
		size := min(off+length, pos+e.size) - max(off, pos)
		pos += e.size
		if e.nd != nd || size <= 0 {
			continue
		}
		sp := ra.span.Child(op)
		if sp != nil {
			sp.Annotate("disk", nd.label)
			sp.Annotate("bytes", strconv.FormatInt(size, 10))
			sp.Annotate("plane", ra.plane)
		}
		wantedAt, hinted := n.nextWanted(nd)
		nd.mu.Lock()
		// Every dwell the disk closes in a working state until the reset
		// below is charged to ra's trace, file, and span.
		nd.curTrace, nd.curFile, nd.curSpan = ra.trace, ra.file, sp
		n.wakeLocked(nd, sp)
		n.serviceLocked(nd, size, write && nd.isBuffer)
		n.armTimerLocked(nd, wantedAt, hinted)
		nd.curTrace, nd.curFile, nd.curSpan = 0, "", nil
		nd.mu.Unlock()
		sp.Finish()
	}
}

// emit moves the reading's bytes through buf, at most len(buf) at a time:
// each piece is handed to fn before buf is filled again — or, with no fn,
// stays, the next landing behind it, and buf ends up holding the range.
func (r reading) emit(t *fileTable, buf []byte, fn func([]byte) error) error {
	pos := int64(0)
	for i, e := range r.exts {
		lo, hi := max(r.off, pos)-pos, min(r.off+r.length, pos+e.size)-pos
		pos += e.size
		if lo >= hi {
			continue
		}
		open, base, err := r.first, e.off, error(nil)
		var f *os.File
		switch {
		case e.seg != nil:
			f = e.seg.f
		case i > 0:
			if open, err = t.takeExtent(r.rec, e.path, false); err != nil {
				return err
			}
			f = open.f
		default:
			f = open.f
		}
		for lo < hi && err == nil {
			b := buf[:min(int64(len(buf)), hi-lo)]
			if _, err = f.ReadAt(b, base+lo); err != nil {
				err = fmt.Errorf("fs: %s truncated on disk: %w", filepath.Base(f.Name()), err)
			} else if fn != nil {
				err = fn(b)
			} else {
				buf = buf[len(b):]
			}
			lo += int64(len(b))
		}
		if e.seg == nil && i > 0 {
			t.putExtent(open, false)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// copyInto stages a whole copy of a file, as file found it, from src
// through w — a prefetch (data disks to buffer), a flush (buffer to data
// disks) or a relocation within the log — through one pooled chunk, so
// tier movement costs O(chunk) memory at any file size. Both sides are
// charged to ra. The caller lands w; on failure it is abandoned here.
func (n *Node) copyInto(w *extentWriter, file fileRec, src []extent, ra reqAttrib) error {
	w.asOf = file.gen
	r := reading{exts: src, rec: w.rec, length: file.Size}
	if err := r.open(n.files); err != nil {
		w.abandon()
		return err
	}
	defer r.close(n.files)
	n.charge(src, 0, file.Size, false, ra)
	n.charge(w.exts, 0, file.Size, true, ra)
	buf := proto.GetChunk(proto.DefaultStreamChunk)
	defer proto.PutChunk(buf)
	if err := r.emit(n.files, buf, w.write); err != nil {
		w.abandon()
		return err
	}
	return nil
}

// recycleBytes is the smallest data-disk extent that reuses storage: its
// writer overwrites the disk's spare instead of allocating a new inode,
// and its commit keeps the inode it replaces as the next spare. A smaller
// extent is created fresh, as it always was, so small files' writes make
// no extra calls and leave no spare behind.
const recycleBytes = proto.DefaultStreamChunk

// extentWriter lands a byte stream across the extents of a copy; nothing
// else writes under buffer/ and data*/. A copy on the buffer disk is one
// range of the log, filled with pwrite and pinned until land names it in
// the file's record or abandon leaves it as garbage for the cleaner. A copy
// on the data disks is written extent by extent as ".part" siblings that
// commit renames into place, so a failed write leaves the previous content
// visible and intact; the per-writer sequence number in the sibling's name
// keeps concurrent writers of one file out of each other's bytes, and
// StartNode sweeps the siblings a crash leaves — spares included, which
// are ".part" files too.
type extentWriter struct {
	exts []extent
	prev []extent // layout being replaced; commit removes what exts does not reuse
	part string   // ".<seq>.part"
	idx  int
	pos  int64 // bytes written into exts[idx]
	f    *os.File

	// The table's side of the operation: the record it started from, which
	// land requires to still be the file's — and, for a tier movement, to
	// be as it was when the copy was taken (asOf; 0: a client write, which
	// supersedes whatever landed before it) — and the buffer-disk bytes
	// reserved for it and the segment it is filling, both handed back to
	// files by land or abandon.
	files    *fileTable
	rec      *fileRec
	asOf     uint64
	reserved int64
	pinned   *segment
	// retired are the disks on which commit kept the inode it replaced
	// under spareName, for land to settle.
	retired []*nodeDisk
	// Set by sink for a client write.
	size     int64
	buffered bool
}

func (n *Node) newWriter(rec *fileRec, exts []extent) *extentWriter {
	seq := n.partSeq.Add(1)
	return &extentWriter{files: n.files, rec: rec, exts: exts, part: "." + strconv.FormatUint(seq, 10) + ".part"}
}

// write lands b, splitting across extent boundaries as needed. Callers
// never hand it more than the extents hold (proto.Stream.RecvChunk checks
// the peer against the declared size).
func (w *extentWriter) write(b []byte) error {
	for len(b) > 0 {
		e := w.exts[w.idx]
		m := min(int64(len(b)), e.size-w.pos)
		var err error
		if e.seg != nil {
			_, err = e.seg.f.WriteAt(b[:m], e.off+w.pos)
		} else {
			if w.f == nil {
				if w.f, err = w.stage(e); err != nil {
					return err
				}
			}
			_, err = w.f.Write(b[:m])
		}
		if err != nil {
			return err
		}
		b = b[m:]
		if w.pos += m; w.pos == e.size {
			w.idx, w.pos = w.idx+1, 0
			if f := w.f; f != nil {
				w.f = nil
				if e.size >= recycleBytes { // it may be a longer spare
					err = f.Truncate(e.size)
				}
				if cerr := f.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// stage creates e's staging sibling. An extent of recycleBytes or more
// takes its disk's spare instead, renamed to the sibling's name and opened
// without truncation: the pages are overwritten, not allocated anew, and
// write truncates the file to the extent's size once it is full.
func (w *extentWriter) stage(e extent) (*os.File, error) {
	name := e.path + w.part
	if e.size >= recycleBytes {
		if spare := e.nd.spare.Swap(nil); spare != nil {
			if err := os.Rename(*spare, name); err != nil {
				os.Remove(*spare) // a spare that cannot be taken is dropped, not leaked
			} else if f, err := os.OpenFile(name, os.O_WRONLY, 0); err == nil {
				return f, nil
			}
		}
	}
	return os.Create(name)
}

// spareName is the name the inode w's commit replaces on nd keeps as a
// spare: "spare.<seq>.part".
func (w *extentWriter) spareName(nd *nodeDisk) string {
	return filepath.Join(nd.dir, "spare"+w.part)
}

// commit renames every completed sibling into place, then removes the
// extents of the previous layout that the new one does not reuse. Names
// are a function of (file, chunk index), so reuse is positional. A range
// of the log is in place already.
//
// An extent of recycleBytes or more first gets a second name for the inode
// it replaces, link(cur, spare); the rename then switches readers from old
// to new in one step as before, and the old inode lives on under the spare
// name only, for land to settle (retire).
func (w *extentWriter) commit() error {
	if w.f != nil || w.idx != len(w.exts) {
		return fmt.Errorf("fs: write ended short of declared size")
	}
	for _, e := range w.exts {
		if e.seg != nil {
			continue
		}
		if e.size >= recycleBytes && e.nd.spare.Load() == nil && !slices.Contains(w.retired, e.nd) &&
			os.Link(e.path, w.spareName(e.nd)) == nil {
			w.retired = append(w.retired, e.nd)
		}
		if err := os.Rename(e.path+w.part, e.path); err != nil {
			return err
		}
	}
	for i, old := range w.prev {
		if i >= len(w.exts) || w.exts[i].path != old.path {
			os.Remove(old.path)
		}
	}
	return nil
}

// retire settles the inodes commit replaced: each is kept as its disk's
// spare, one per disk, when the write landed and no reading of the file's
// data-disk copy is open; otherwise it is unlinked. It runs after land's
// transition, which moved the file's generation and so dropped its kept
// descriptors (openextent.go): a reading not counted by now opens the new
// inode, and one that could hold the old one is counted, because a
// reading counts itself before it takes a descriptor.
func (w *extentWriter) retire(landed bool) {
	keep := landed && len(w.retired) > 0 && !w.files.isRead(w.rec)
	for _, nd := range w.retired {
		if name := w.spareName(nd); !keep || !nd.spare.CompareAndSwap(nil, &name) {
			os.Remove(name)
		}
	}
	w.retired = nil
}

// abandon discards all partial state.
func (w *extentWriter) abandon() {
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	for _, e := range w.exts {
		if e.seg == nil {
			os.Remove(e.path + w.part)
		}
	}
	w.release()
}

// release hands back what the writer holds of the buffer disk: its
// reservation, and its pin on the segment it filled.
func (w *extentWriter) release() {
	if w.reserved > 0 {
		w.files.release(w.rec, w.reserved)
		w.reserved = 0
	}
	w.files.unpin(w.pinned)
	w.pinned = nil
}

// land ends a client write or a tier movement whose bytes w has staged:
// one transition that, if the file w started from is still the node's,
// puts the staged extents in place, applies edit's change (nil: none) to
// the file's record and, for a copy in the log, names its location there.
// If the file was deleted meanwhile — the error then wraps ErrFileNotFound
// — or a write landed after a tier movement took its copy, what was staged
// is discarded.
func (n *Node) land(w *extentWriter, edit func(r *nodeRecord)) error {
	err := n.transition(w.rec.ID, func(rec *fileRec, r *nodeRecord) error {
		if rec != w.rec {
			return fmt.Errorf("fs: file %d deleted under an operation in flight: %w", w.rec.ID, ErrFileNotFound)
		}
		if w.asOf != 0 && rec.gen != w.asOf {
			return fmt.Errorf("fs: file %d changed under a tier movement", rec.ID)
		}
		if err := w.commit(); err != nil {
			return err
		}
		if edit != nil {
			edit(r)
		}
		if e := w.exts[0]; e.seg != nil {
			r.Loc = segLoc{Seg: e.seg.id, Off: e.off}
			if n.plantEarlyOffset && e.off > 0 {
				r.Loc.Off--
			}
		}
		return nil
	})
	w.retire(err == nil)
	if err != nil {
		w.abandon()
		return err
	}
	w.release()
	return nil
}

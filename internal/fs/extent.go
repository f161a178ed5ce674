// The node's storage engine (DESIGN.md §19). A file copy is a list of
// extents: one on the buffer disk, or one per stripe chunk on the data
// disks. Everything that moves file bytes — RPC handlers, stream
// handlers, prefetch, flush — goes through the pieces here: source picks
// the copy to read, sink where a write lands, charge runs the disk model,
// reading.emit moves bytes out and extentWriter moves them in. The wire
// planes above differ only in how they frame the bytes.
package fs

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"eevfs/internal/metadata"
	"eevfs/internal/proto"
)

// extent is one on-disk piece of a file copy: the disk it lives on (for
// latency and energy charging), its path, and its length.
type extent struct {
	nd   *nodeDisk
	path string
	size int64
}

// extentPath is where nd keeps a file's bytes: dir/f<id>.dat for a whole
// copy (chunk < 0), dir/f<id>.c<chunk>.dat for one stripe chunk. Every
// read builds one, so it is assembled in a stack buffer, not by Sprintf
// and Join.
func extentPath(nd *nodeDisk, id int64, chunk int) string {
	b := append(make([]byte, 0, 96), nd.dir...)
	b = fmt.Appendf(append(b, os.PathSeparator), "f%08d", id)
	if chunk >= 0 {
		b = fmt.Appendf(b, ".c%03d", chunk)
	}
	return string(append(b, ".dat"...))
}

// bufferExtent is the buffer-disk copy of a file: always one extent.
func (n *Node) bufferExtent(id int, size int64) []extent {
	return []extent{{nd: n.buffer, path: extentPath(n.buffer, int64(id), -1), size: size}}
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

// reading is one read resolved by source: the open extents of the copy
// that serves it and the byte range wanted from them.
type reading struct {
	exts        []extent
	first       *os.File // exts[0]; the caller closes it
	off, length int64
	fromBuffer  bool
}

// source resolves a read of bytes [off, off+length) of a file to its
// newest copy: the buffer disk's when it holds one (a prefetched replica
// or an unflushed buffered write), the data disks' otherwise. Opening
// exts[0] is the existence check: a buffer copy that has gone missing
// falls back to the data disks, a file with no bytes anywhere fails
// before any disk is charged. source counts the buffer hit or miss,
// timestamps the access and charges the disks the range touches.
func (n *Node) source(fileID, off, length int64, ra reqAttrib) (reading, error) {
	_, file, ok := n.files.get(int(fileID), float64(n.clock.Now()))
	if !ok {
		return reading{}, fmt.Errorf("fs: read of unknown file %d", fileID)
	}
	if length == wholeFile {
		off, length = 0, file.Size
	}
	if off < 0 || length < 0 || off > file.Size || length > file.Size-off {
		return reading{}, fmt.Errorf("fs: range [%d,+%d) outside file %d of %d bytes",
			off, length, fileID, file.Size)
	}
	r := reading{off: off, length: length}
	var err error
	if file.inBuffer() {
		r.exts = n.bufferExtent(file.ID, file.Size)
		if r.first, err = os.Open(r.exts[0].path); err == nil {
			r.fromBuffer = true
			n.hitsC.Inc()
		} else {
			n.logger.Printf("buffer copy of file %d unreadable, falling back: %v", fileID, err)
		}
	}
	if !r.fromBuffer {
		r.exts = n.dataExtents(file.NodeEntry)
		if r.first, err = os.Open(r.exts[0].path); err != nil {
			return reading{}, err
		}
		n.missesC.Inc()
	}
	n.charge(r.exts, off, length, false, ra)
	return r, nil
}

// sink resolves a write of size bytes to where it lands — the buffer
// disk's log area when write buffering is on and the table grants the
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
	entry := file.NodeEntry
	w := n.newWriter(rec, nil)
	w.size = size
	if size != entry.Size {
		w.prev = n.dataExtents(entry)
	}
	if n.cfg.WriteBuffer && n.files.reserve(rec, size) {
		w.buffered, w.reserved = true, size
		w.exts = n.bufferExtent(entry.ID, size)
	} else {
		entry.Size = size
		w.exts = n.dataExtents(entry)
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
func (r reading) emit(buf []byte, fn func([]byte) error) error {
	pos := int64(0)
	for i, e := range r.exts {
		lo, hi := max(r.off, pos)-pos, min(r.off+r.length, pos+e.size)-pos
		pos += e.size
		if lo >= hi {
			continue
		}
		f, err := r.first, error(nil)
		if i > 0 {
			if f, err = os.Open(e.path); err != nil {
				return err
			}
		}
		for lo < hi && err == nil {
			b := buf[:min(int64(len(buf)), hi-lo)]
			if _, err = f.ReadAt(b, lo); err != nil {
				err = fmt.Errorf("fs: %s truncated on disk: %w", filepath.Base(e.path), err)
			} else if fn != nil {
				err = fn(b)
			} else {
				buf = buf[len(b):]
			}
			lo += int64(len(b))
		}
		if i > 0 {
			f.Close()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// copyExtents stages a whole copy of rec's file, as file found it, from
// src as dst — a prefetch (data disks to buffer) or a flush (buffer to
// data disks) — through one pooled chunk, so tier movement costs O(chunk)
// memory at any file size. Both sides are charged to ra. The caller lands
// the returned writer, which owns the reserved buffer-disk bytes from here
// on: they are handed back on every failure too.
func (n *Node) copyExtents(rec *fileRec, file fileRec, src, dst []extent, reserved int64, ra reqAttrib) (*extentWriter, error) {
	size := file.Size
	w := n.newWriter(rec, dst)
	w.reserved, w.asOf = reserved, file.gen
	first, err := os.Open(src[0].path)
	if err != nil {
		w.abandon()
		return nil, err
	}
	defer first.Close()
	n.charge(src, 0, size, false, ra)
	n.charge(dst, 0, size, true, ra)
	buf := proto.GetChunk(proto.DefaultStreamChunk)
	defer proto.PutChunk(buf)
	if err := (reading{exts: src, first: first, length: size}).emit(buf, w.write); err != nil {
		w.abandon()
		return nil, err
	}
	return w, nil
}

// extentWriter lands a byte stream across the extents of a copy; nothing
// else creates files under buffer/ and data*/. Each extent is written as
// a ".part" sibling that commit renames into place, so a failed write
// leaves the previous content visible and intact. The per-writer sequence
// number in the sibling's name keeps concurrent writers of one file out
// of each other's bytes. StartNode sweeps the siblings a crash leaves.
type extentWriter struct {
	exts []extent
	prev []extent // layout being replaced; commit removes what exts does not reuse
	part string   // ".<seq>.part"
	idx  int
	f    *os.File
	rem  int64 // bytes left in the current extent

	// The table's side of the operation: the record it started from, which
	// land requires to still be the file's — and, for a tier movement, to
	// be as it was when the copy was taken (asOf; 0: a client write, which
	// supersedes whatever landed before it) — and the buffer-disk bytes
	// reserved for it, handed back to files by land or abandon.
	files    *fileTable
	rec      *fileRec
	asOf     uint64
	reserved int64
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
		if w.f == nil {
			f, err := os.Create(w.exts[w.idx].path + w.part)
			if err != nil {
				return err
			}
			w.f, w.rem = f, w.exts[w.idx].size
		}
		m := min(int64(len(b)), w.rem)
		if _, err := w.f.Write(b[:m]); err != nil {
			return err
		}
		b = b[m:]
		w.rem -= m
		if w.rem == 0 {
			err := w.f.Close()
			w.f = nil
			w.idx++
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// commit renames every completed sibling into place, then removes the
// extents of the previous layout that the new one does not reuse. Names
// are a function of (file, chunk index), so reuse is positional. On
// failure the writer is abandoned.
func (w *extentWriter) commit() error {
	if w.f != nil || w.idx != len(w.exts) {
		w.abandon()
		return fmt.Errorf("fs: write ended short of declared size")
	}
	for _, e := range w.exts {
		if err := os.Rename(e.path+w.part, e.path); err != nil {
			w.abandon()
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

// abandon discards all partial state.
func (w *extentWriter) abandon() {
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	for _, e := range w.exts {
		os.Remove(e.path + w.part)
	}
	w.unreserve()
}

func (w *extentWriter) unreserve() {
	if w.reserved > 0 {
		w.files.release(w.rec, w.reserved)
		w.reserved = 0
	}
}

// land ends a client write or a tier movement whose bytes w has staged:
// one transition that, if the file w started from is still the node's,
// renames the staged extents into place and applies edit's change to the
// file's record. If the file was deleted meanwhile — the error then wraps
// ErrFileNotFound — or a write landed after a tier movement took its
// copy, what was staged is discarded.
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
		edit(r)
		return nil
	})
	if err != nil {
		w.abandon()
		return err
	}
	w.unreserve()
	return nil
}

// sweepParts removes the ".part" siblings a crash mid-write left in dir.
// Nothing references them: a write is acknowledged only after its rename.
func sweepParts(dir string) error {
	files, err := os.ReadDir(dir)
	for _, f := range files {
		if strings.HasSuffix(f.Name(), ".part") {
			err = errors.Join(err, os.Remove(filepath.Join(dir, f.Name())))
		}
	}
	return err
}

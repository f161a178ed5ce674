package fs

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"eevfs/internal/metadata"
	"eevfs/internal/proto"
	"eevfs/internal/wal"
)

// Metadata persistence. Both daemons keep a checkpoint plus an
// append-only, CRC-framed log (internal/wal): a mutation appends one
// small record, the O(files) checkpoint is written on clean shutdown and
// whenever the log outgrows it, and a restart loads the checkpoint and
// replays the log's valid prefix. The storage node's checkpoint is
// <RootDir>/manifest.json with its log beside it; the storage server's is
// the operator-chosen StateFile with <StateFile>.wal. Nothing is fsynced:
// state survives kill -9, not power loss.

// nodeManifest is the storage node's checkpoint.
type nodeManifest struct {
	Version  int                  `json:"version"`
	NextDisk int                  `json:"next_disk"`
	Files    []metadata.NodeEntry `json:"files"`
	Dirty    []dirtyEntry         `json:"dirty,omitempty"`
	Buffer   []bufferEntry        `json:"buffer,omitempty"`
}

type dirtyEntry struct {
	ID   int   `json:"id"`
	Size int64 `json:"size"`
}

// bufferEntry is where a file's buffer-disk copy lies in the log.
type bufferEntry struct {
	ID      int    `json:"id"`
	Segment uint64 `json:"segment"`
	Offset  int64  `json:"offset"`
}

// manifestVersion 2 places buffer copies in the log.
const manifestVersion = 2

// errPreLog refuses, untouched, a root from before the log (a version 1
// manifest), which kept each buffer copy as a file.
var errPreLog = errors.New("fs: the root keeps buffer copies as files (buffer/f<id>.dat), the layout from before the buffer disk's log; open it once with a release that moves them into the log")

func (n *Node) manifestPath() string {
	return filepath.Join(n.cfg.RootDir, "manifest.json")
}

// nodeRecord is one record of the node's log: the complete persisted
// state of one file id — its entry or a tombstone, its unflushed
// buffered-write size, where its buffer-disk copy lies — plus the
// placement cursor, all as they stood after the mutation. Carrying post-state instead of the operation makes
// replay idempotent and order-safe: applying a record twice, or over a
// checkpoint that already reflects it, lands in the same state, and the
// last record of an id always wins.
type nodeRecord struct {
	Entry     metadata.NodeEntry
	Present   bool // false: tombstone, the id is gone
	Dirty     bool
	DirtySize int64
	NextDisk  int
	Loc       segLoc // the buffer copy's; zero: none (or, from before the log, one kept as a file)
}

// encode writes the location only when there is one, so a record without
// is byte for byte what a node from before the log wrote.
func (r nodeRecord) encode() []byte {
	var e proto.Encoder
	e.I64(int64(r.Entry.ID)).Bool(r.Present).I64(r.Entry.Size).I64(int64(r.Entry.Disk))
	e.Bool(r.Entry.Prefetched).Bool(r.Dirty).I64(r.DirtySize).I64(int64(r.NextDisk))
	if r.Loc.Seg != 0 {
		e.U64(r.Loc.Seg).I64(r.Loc.Off)
	}
	return e.Bytes()
}

// badLoc reports a location no node writes: one that is not a range of a
// segment, or that places a copy of a file the buffer disk does not hold.
func (r nodeRecord) badLoc() bool {
	return r.Loc != (segLoc{}) && (r.Loc.Seg == 0 || r.Loc.Off < 0 || !r.Present || !r.Entry.Prefetched && !r.Dirty)
}

// decodeNodeRecord parses one log record, rejecting trailing bytes and
// values no node writes, so a foreign or damaged record that still
// passes its checksum fails the restart instead of installing garbage.
func decodeNodeRecord(b []byte) (nodeRecord, error) {
	d := proto.NewDecoder(b)
	var r nodeRecord
	r.Entry.ID = int(d.I64())
	r.Present = d.Bool()
	r.Entry.Size = d.I64()
	r.Entry.Disk = int(d.I64())
	r.Entry.Prefetched = d.Bool()
	r.Dirty = d.Bool()
	r.DirtySize = d.I64()
	r.NextDisk = int(d.I64())
	located := d.Remaining() > 0
	if located {
		r.Loc = segLoc{Seg: d.U64(), Off: d.I64()}
	}
	switch {
	case d.Err() != nil:
		return nodeRecord{}, d.Err()
	case d.Remaining() != 0:
		return nodeRecord{}, fmt.Errorf("fs: node record has %d trailing bytes", d.Remaining())
	case r.Entry.ID < 0 || r.NextDisk < 0 || r.DirtySize < 0:
		return nodeRecord{}, errors.New("fs: node record with a negative id, cursor or dirty size")
	case r.Dirty != (r.DirtySize > 0):
		return nodeRecord{}, fmt.Errorf("fs: node record for file %d has dirty=%v with %d unflushed bytes",
			r.Entry.ID, r.Dirty, r.DirtySize)
	case r.Present && (r.Entry.Size <= 0 || r.Entry.Disk < 0):
		return nodeRecord{}, fmt.Errorf("fs: node record for file %d has size %d on disk %d",
			r.Entry.ID, r.Entry.Size, r.Entry.Disk)
	case !r.Present && r.Dirty:
		return nodeRecord{}, fmt.Errorf("fs: node record marks deleted file %d dirty", r.Entry.ID)
	case r.badLoc() || located && r.Loc.Seg == 0:
		return nodeRecord{}, fmt.Errorf("fs: node record places file %d's buffer copy at %+v", r.Entry.ID, r.Loc)
	}
	return r, nil
}

// openManifest restores the node's file table from a previous run and
// opens the log for this one; nothing on disk means a fresh node.
func (n *Node) openManifest() error {
	l, err := wal.Open(n.manifestPath(), filepath.Join(n.cfg.RootDir, "manifest.wal"),
		n.files.load, n.files.replay)
	if err != nil {
		return fmt.Errorf("fs: restoring node metadata: %w", err)
	}
	n.wal = l
	return nil
}

// decodeNodeManifest parses and version-checks a node manifest. Split
// from fileTable.load so the decode path is directly fuzzable.
func decodeNodeManifest(raw []byte) (nodeManifest, error) {
	var m nodeManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nodeManifest{}, err
	}
	switch m.Version {
	case manifestVersion:
		return m, nil
	case 1:
		return nodeManifest{}, errPreLog
	}
	return nodeManifest{}, fmt.Errorf("fs: manifest version %d unsupported", m.Version)
}

// transition is the one way a running node changes what it persists about
// a file. step sees the file's record (nil: the node holds no such file)
// and edits r, which arrives as the file's current persisted state. Unless
// step fails, r is validated, appended to the log if it differs from what
// was persisted, and only then applied — which advances the file's
// generation, so a tier movement that copied it before cannot land. A
// failed append fails the operation and leaves the table as it was, and
// apply, the one place a segment loses live bytes, never frees one the log
// still names. All of it happens inside persistMu: nothing persisted moves
// under step, which may therefore rename staged extents into place, and an
// id's records reach the log in the order they are applied. The file's
// kept descriptors that apply drops are closed after persistMu is let go.
func (n *Node) transition(id int, step func(rec *fileRec, r *nodeRecord) error) error {
	var shut []*os.File
	defer func() { closeAll(shut) }()
	n.persistMu.Lock()
	defer n.persistMu.Unlock()
	rec, r := n.files.record(id)
	was := r
	if err := step(rec, &r); err != nil {
		return err
	}
	if err := n.files.validate(r); err != nil {
		return err
	}
	if r != was {
		before := n.wal.Size()
		err := n.plantAppendErr
		if err == nil {
			err = n.wal.Append(r.encode())
		}
		if err != nil {
			return err
		}
		n.logBytesC.Add(n.wal.Size() - before)
	}
	shut, _ = n.files.applyHolding(r) // validated above: it cannot fail
	if n.wal.NeedsCheckpoint() {
		n.checkpointLocked()
	}
	return nil
}

// checkpointLocked writes the whole table as manifest.json and empties
// the log. Callers hold persistMu, which keeps transitions out while the
// table is walked.
func (n *Node) checkpointLocked() {
	data, err := json.MarshalIndent(n.files.manifest(), "", "  ")
	if err == nil {
		err = n.wal.Checkpoint(data)
	}
	if err != nil {
		n.logger.Printf("manifest checkpoint failed: %v", err)
		return
	}
	n.checkpointsC.Inc()
}

package fs

import (
	"encoding/json"
	"errors"
	"fmt"
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
}

type dirtyEntry struct {
	ID   int   `json:"id"`
	Size int64 `json:"size"`
}

const manifestVersion = 1

func (n *Node) manifestPath() string {
	return filepath.Join(n.cfg.RootDir, "manifest.json")
}

// nodeRecord is one record of the node's log: the complete persisted
// state of one file id — its entry or a tombstone, its unflushed
// buffered-write size — plus the placement cursor, all as they stood
// after the mutation. Carrying post-state instead of the operation makes
// replay idempotent and order-safe: applying a record twice, or over a
// checkpoint that already reflects it, lands in the same state, and the
// last record of an id always wins.
type nodeRecord struct {
	Entry     metadata.NodeEntry
	Present   bool // false: tombstone, the id is gone
	Dirty     bool
	DirtySize int64
	NextDisk  int
}

func (r nodeRecord) encode() []byte {
	var e proto.Encoder
	e.I64(int64(r.Entry.ID)).Bool(r.Present).I64(r.Entry.Size).I64(int64(r.Entry.Disk))
	e.Bool(r.Entry.Prefetched).Bool(r.Dirty).I64(r.DirtySize).I64(int64(r.NextDisk))
	return e.Bytes()
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
	if m.Version != manifestVersion {
		return nodeManifest{}, fmt.Errorf("fs: manifest version %d unsupported", m.Version)
	}
	return m, nil
}

// transition is the one way a running node changes what it persists about
// a file. step sees the file's record (nil: the node holds no such file)
// and edits r, which arrives as the file's current persisted state; unless
// step fails, r is applied to the table — which advances the file's
// generation, so a tier movement that copied it before cannot land — and,
// if it differs from what was persisted, those same bytes are appended to
// the log, all inside persistMu: nothing persisted moves under step, which
// may therefore rename staged extents into place, and an id's records
// reach the log in the order they were applied. A failed append is
// logged, not fatal — as a failed manifest save always was.
func (n *Node) transition(id int, step func(rec *fileRec, r *nodeRecord) error) error {
	n.persistMu.Lock()
	defer n.persistMu.Unlock()
	rec, r := n.files.record(id)
	was := r
	if err := step(rec, &r); err != nil {
		return err
	}
	if err := n.files.apply(r); err != nil || r == was {
		return err
	}
	before := n.wal.Size()
	if err := n.wal.Append(r.encode()); err != nil {
		n.logger.Printf("manifest log append failed: %v", err)
		return nil
	}
	n.logBytesC.Add(n.wal.Size() - before)
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

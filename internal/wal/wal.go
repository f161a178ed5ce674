// Package wal persists a state machine as a checkpoint file plus an
// append-only record log, the way the paper's buffer disk absorbs writes:
// a mutation costs one sequential append, never a rewrite of the table.
//
// The log is a run of frames, each
//
//	u32 payload length | u32 CRC-32C of the payload | payload
//
// (big-endian, like the wire codec). Recovery loads the checkpoint, then
// replays the log's longest valid prefix and truncates whatever follows —
// a torn final write or a corrupted frame ends the log, it never decodes
// as garbage. A checkpoint replaces the checkpoint file atomically (temp
// file + rename) and then empties the log; a crash between the two steps
// leaves records the checkpoint already reflects, so records must be
// idempotent or carry a sequence number the replayer can skip.
//
// Nothing is fsynced: the contract is survival of the process (kill -9),
// not of the machine. Append is the single place a later fsync belongs.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
)

const (
	headerLen = 8
	// MaxRecord bounds one record's payload. A length field above it is
	// corruption, never a reason to read or allocate that much.
	MaxRecord = 16 << 20
	// minLogBytes is the log size below which a checkpoint is never due.
	minLogBytes = 64 << 10
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends payload to dst as one frame.
func AppendFrame(dst, payload []byte) []byte {
	var hdr [headerLen]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoli))
	return append(append(dst, hdr[:]...), payload...)
}

// Unframe returns the payload of data, which must be exactly one intact
// frame — the shape of a checkpoint that is itself framed for its CRC.
func Unframe(data []byte) ([]byte, error) {
	var payload []byte
	frames := 0
	valid, _ := Replay(data, func(p []byte) error {
		payload = p
		frames++
		return nil
	})
	if frames != 1 || valid != len(data) {
		return nil, errors.New("wal: not exactly one intact frame")
	}
	return payload, nil
}

// Replay calls fn with the payload of every frame in data's longest valid
// prefix, in order, and returns that prefix's length. The first frame
// that is short, empty, oversized or fails its checksum ends the prefix.
// Payloads are views into data. An error from fn stops the replay and is
// returned with the length replayed so far.
func Replay(data []byte, fn func(payload []byte) error) (int, error) {
	return replay(data, fn, true)
}

// replay is Replay with the checksum comparison switchable, so the
// crash-prefix oracle can prove it notices a recovery that trusts a
// corrupt frame.
func replay(data []byte, fn func(payload []byte) error, verify bool) (int, error) {
	off := 0
	for len(data)-off >= headerLen {
		n := int(binary.BigEndian.Uint32(data[off:]))
		sum := binary.BigEndian.Uint32(data[off+4:])
		// An empty frame is never written; accepting one would let a
		// zero-filled tail replay as records.
		if n == 0 || n > MaxRecord || n > len(data)-off-headerLen {
			break
		}
		payload := data[off+headerLen : off+headerLen+n]
		if verify && crc32.Checksum(payload, castagnoli) != sum {
			break
		}
		if err := fn(payload); err != nil {
			return off, err
		}
		off += headerLen + n
	}
	return off, nil
}

// Log is an open checkpoint + log pair. It is not safe for concurrent
// use: the owner serializes Append and Checkpoint under its own lock,
// which is also what orders records against the state they describe.
type Log struct {
	f              *os.File
	checkpointPath string
	size           int64 // bytes of valid log on disk
	checkpointed   int64 // size of the checkpoint file last read or written
	buf            []byte
}

// Open recovers the state persisted at checkpointPath and logPath: load
// receives the checkpoint file's bytes (it is not called when there is no
// checkpoint), then apply receives each record of the log's longest valid
// prefix. A torn or corrupt log tail is truncated away. An error from
// load or apply aborts the recovery and is returned: bytes that pass
// their checksum yet make no sense are a bug or a foreign file, and
// dropping them silently would drop acked mutations.
func Open(checkpointPath, logPath string, load, apply func([]byte) error) (*Log, error) {
	l := &Log{checkpointPath: checkpointPath}
	snap, err := os.ReadFile(checkpointPath)
	switch {
	case err == nil:
		if err := load(snap); err != nil {
			return nil, fmt.Errorf("wal: corrupt checkpoint %s: %w", checkpointPath, err)
		}
		l.checkpointed = int64(len(snap))
	case !os.IsNotExist(err):
		return nil, fmt.Errorf("wal: reading checkpoint: %w", err)
	}
	data, err := os.ReadFile(logPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("wal: reading log: %w", err)
	}
	valid, err := Replay(data, apply)
	if err != nil {
		return nil, fmt.Errorf("wal: corrupt log %s at byte %d: %w", logPath, valid, err)
	}
	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: opening log: %w", err)
	}
	if valid < len(data) {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncating torn log tail: %w", err)
		}
	}
	l.f, l.size = f, int64(valid)
	return l, nil
}

// Append writes the records as consecutive frames with one write(2), so
// a batch costs one system call however many records it holds. On a
// failed or short write the log is cut back to its previous length: a
// torn frame left in place would hide every later record from Replay.
func (l *Log) Append(records ...[]byte) error {
	l.buf = l.buf[:0]
	for _, r := range records {
		if len(r) == 0 || len(r) > MaxRecord {
			return fmt.Errorf("wal: record of %d bytes outside (0, %d]", len(r), MaxRecord)
		}
		l.buf = AppendFrame(l.buf, r)
	}
	if _, err := l.f.Write(l.buf); err != nil {
		if terr := l.f.Truncate(l.size); terr != nil {
			return fmt.Errorf("wal: append failed (%w) and the torn tail could not be cut: %v", err, terr)
		}
		return fmt.Errorf("wal: append: %w", err)
	}
	l.size += int64(len(l.buf))
	return nil
}

// Size is the log's current length in bytes.
func (l *Log) Size() int64 { return l.size }

// NeedsCheckpoint reports whether the log has outgrown
// max(64 KiB, 2 x the last checkpoint). Checkpointing at that point keeps
// the O(state) snapshot amortised O(1) per appended record and bounds
// recovery to reading about three checkpoints' worth of bytes.
func (l *Log) NeedsCheckpoint() bool {
	return l.size > max(minLogBytes, 2*l.checkpointed)
}

// Checkpoint atomically replaces the checkpoint file with snapshot —
// which must describe the state after every record appended so far — and
// then empties the log.
func (l *Log) Checkpoint(snapshot []byte) error {
	tmp := l.checkpointPath + ".tmp"
	if err := os.WriteFile(tmp, snapshot, 0o644); err != nil {
		return fmt.Errorf("wal: writing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, l.checkpointPath); err != nil {
		return fmt.Errorf("wal: installing checkpoint: %w", err)
	}
	l.checkpointed = int64(len(snapshot))
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: emptying log: %w", err)
	}
	l.size = 0
	return nil
}

// Close closes the log file.
func (l *Log) Close() error { return l.f.Close() }

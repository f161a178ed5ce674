package trace

import (
	"sync"
	"sync/atomic"
)

// Chunk geometry for AtomicLog: 1024 records per chunk keeps the chunk
// directory tiny (one pointer per ~50 KiB of records) while bounding the
// copy cost of a directory grow.
const (
	logChunkBits = 10
	logChunkSize = 1 << logChunkBits
)

// logChunk is one fixed-size block of the log. A record's fields are
// plain memory; the per-slot ready flag is the atomic publication point
// (store-release after the fields are written, load-acquire before they
// are read), which is what makes the whole structure safe without locks.
type logChunk struct {
	recs  [logChunkSize]Record
	ready [logChunkSize]atomic.Bool
}

// AtomicLog is a lock-free append-only request log (Section IV's
// append-only popularity journal). Appenders
// reserve a slot with one atomic fetch-add and publish it with one
// atomic flag store; readers walk the reserved prefix and skip the —
// transiently — unpublished slots of in-flight appends. No program code
// uses it: the storage server keeps the per-file fold of this log
// (fs.popTable), not the log. The type stays only for the benchmark's
// trace.* probes (bench/layers.go) and is removed with them.
//
// The zero value is ready to use. An AtomicLog must not be copied.
type AtomicLog struct {
	next   atomic.Int64 // number of reserved slots
	chunks atomic.Pointer[[]*logChunk]
	grow   sync.Mutex // serializes chunk-directory growth only
}

// Append assigns the record the next sequence number, stores it, and
// returns that sequence number. Safe for any number of concurrent
// appenders; the sequence numbers are dense and unique but publication
// order may transiently differ from reservation order.
func (l *AtomicLog) Append(r Record) int64 {
	seq := l.next.Add(1) - 1
	c := l.chunkFor(seq)
	i := seq & (logChunkSize - 1)
	r.Seq = seq
	c.recs[i] = r
	c.ready[i].Store(true)
	return seq
}

// chunkFor returns the chunk holding the given sequence number, growing
// the chunk directory if this is the first slot reserved in it. The
// directory is copy-on-grow: readers always load a consistent snapshot.
func (l *AtomicLog) chunkFor(seq int64) *logChunk {
	idx := int(seq >> logChunkBits)
	for {
		if cs := l.chunks.Load(); cs != nil && idx < len(*cs) {
			return (*cs)[idx]
		}
		l.grow.Lock()
		cs := l.chunks.Load()
		if cs != nil && idx < len(*cs) {
			l.grow.Unlock()
			return (*cs)[idx]
		}
		var grown []*logChunk
		if cs != nil {
			grown = append(grown, *cs...)
		}
		for len(grown) <= idx {
			grown = append(grown, new(logChunk))
		}
		l.chunks.Store(&grown)
		l.grow.Unlock()
	}
}

// Len returns the number of reserved slots. A handful of the newest
// slots may still be mid-publication when there are concurrent
// appenders.
func (l *AtomicLog) Len() int {
	return int(l.next.Load())
}

// Snapshot copies the published records in sequence order. Slots still
// being written by concurrent appenders are skipped, so the result is a
// consistent prefix-plus-holes view — exactly the tolerance popularity
// recomputation needs.
func (l *AtomicLog) Snapshot() []Record {
	n := l.next.Load()
	out := make([]Record, 0, n)
	l.scan(n, func(r Record) { out = append(out, r) })
	return out
}

// Counts returns access counts per file id over the published log.
// numFiles bounds the id space; out-of-range ids are ignored.
func (l *AtomicLog) Counts(numFiles int) []int {
	counts := make([]int, numFiles)
	l.scan(l.next.Load(), func(r Record) {
		if r.FileID >= 0 && r.FileID < numFiles {
			counts[r.FileID]++
		}
	})
	return counts
}

// ScanFrom visits every published record with from <= seq < Len(), in
// order. Periodic consumers that remember their high-water mark (the
// replication epoch flush) pay for the tail appended since their last
// visit instead of re-copying the whole history every tick.
func (l *AtomicLog) ScanFrom(from int64, visit func(Record)) {
	if from < 0 {
		from = 0
	}
	l.scanRange(from, l.next.Load(), visit)
}

// scan visits every published record with sequence number < n, in order.
func (l *AtomicLog) scan(n int64, visit func(Record)) {
	l.scanRange(0, n, visit)
}

func (l *AtomicLog) scanRange(from, n int64, visit func(Record)) {
	cs := l.chunks.Load()
	if cs == nil {
		return
	}
	for seq := from; seq < n; seq++ {
		idx := int(seq >> logChunkBits)
		if idx >= len(*cs) {
			return // directory grew after we snapshotted; newer slots are unpublished to us
		}
		c := (*cs)[idx]
		i := seq & (logChunkSize - 1)
		if c.ready[i].Load() {
			visit(c.recs[i])
		}
	}
}

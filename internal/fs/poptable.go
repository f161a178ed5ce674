package fs

import (
	"math"
	"sync"
	"sync/atomic"

	"eevfs/internal/proto"
)

// File ids are dense and monotonic, so a chunked grow-only array beats a
// map and needs no per-read lock.
const (
	popChunkBits = 10
	popChunkSize = 1 << popChunkBits
)

// popSlot is everything the server keeps about one file id apart from
// its namespace entry. The paper's server ranks the prefetch set by
// access count (Section IV-B) and forwards mean inter-arrival as a hint
// (IV-C); both are folds of its request log — {count, min t, max t} — so
// the fold is kept and the log is not: state grows with the number of
// files, never with the number of lookups.
type popSlot struct {
	size atomic.Int64

	// The live fold, written lock-free by lookups. Times are stored as
	// math.Float64bits(t)+1 so zero means "never set"; the bits of
	// non-negative floats order like the floats, so CAS min/max works on
	// the encoded form. count is bumped last: a reader that loads it first
	// finds first and last covering at least that many accesses.
	count atomic.Int64
	first atomic.Uint64
	last  atomic.Uint64

	// creating is set, on the primary, from the moment a create claims
	// this id until its op has committed. A lookup answer for the file
	// meanwhile is not cacheable: were the primary to die first, a new
	// one would give the id to another name.
	creating atomic.Bool

	// rep is the part of the fold that is sequenced into the op log: on a
	// primary what its epochs have shipped, on a follower what it has
	// applied (and there the live fold is kept equal to it). FileID is
	// unused. Guarded by the log lock (replog.mu).
	rep proto.RepAccess
}

func encodeTime(t float64) uint64 { return math.Float64bits(t) + 1 }
func decodeTime(e uint64) float64 { return math.Float64frombits(e - 1) }

// note folds one access at timeS (model seconds, non-negative) into the
// live fold.
func (s *popSlot) note(timeS float64) { s.fold(1, timeS, timeS) }

// fold folds count accesses, the earliest at first and the latest at
// last (model seconds, 0 <= first <= last), into the live fold: a
// lookup's one access, or a client's report of the reads it served
// without one.
func (s *popSlot) fold(count int64, first, last float64) {
	encFirst, encLast := encodeTime(first), encodeTime(last)
	for {
		cur := s.first.Load()
		if (cur != 0 && cur <= encFirst) || s.first.CompareAndSwap(cur, encFirst) {
			break
		}
	}
	for {
		cur := s.last.Load()
		if cur >= encLast || s.last.CompareAndSwap(cur, encLast) {
			break
		}
	}
	s.count.Add(count)
}

// live returns the live fold; the times mean nothing while count is 0.
func (s *popSlot) live() (count int64, first, last float64) {
	count = s.count.Load()
	if count == 0 {
		return 0, 0, 0
	}
	return count, decodeTime(s.first.Load()), decodeTime(s.last.Load())
}

// foldRep folds a replicated delta into rep. Callers hold the log lock.
func (s *popSlot) foldRep(d proto.RepAccess) {
	if s.rep.Count == 0 {
		s.rep.First, s.rep.Last = d.First, d.Last
	}
	s.rep.Count += d.Count
	s.rep.First = min(s.rep.First, d.First)
	s.rep.Last = max(s.rep.Last, d.Last)
}

// publishRep makes the live fold equal to rep, which is how a server
// that takes no lookups of its own follows the primary. Callers hold
// the log lock.
func (s *popSlot) publishRep() {
	s.first.Store(encodeTime(s.rep.First))
	s.last.Store(encodeTime(s.rep.Last))
	s.count.Store(s.rep.Count)
}

type popChunk [popChunkSize]popSlot

// popTable is the server's per-file state indexed by dense file id.
// Slots survive deletes: popularity is ranked over the whole id space.
// Must not be copied.
type popTable struct {
	chunks atomic.Pointer[[]*popChunk]
	grow   sync.Mutex
}

// slot returns the cell for a file id, growing the chunk directory on
// first touch of a new chunk.
func (t *popTable) slot(id int64) *popSlot {
	idx := int(id >> popChunkBits)
	for {
		if cs := t.chunks.Load(); cs != nil && idx < len(*cs) {
			return &(*cs)[idx][id&(popChunkSize-1)]
		}
		t.grow.Lock()
		cs := t.chunks.Load()
		if cs == nil || idx >= len(*cs) {
			var grown []*popChunk
			if cs != nil {
				grown = append(grown, *cs...)
			}
			for len(grown) <= idx {
				grown = append(grown, new(popChunk))
			}
			t.chunks.Store(&grown)
		}
		t.grow.Unlock()
	}
}

// each visits the slots of ids [0, n) that exist, in id order.
func (t *popTable) each(n int64, visit func(id int64, s *popSlot)) {
	cs := t.chunks.Load()
	if cs == nil {
		return
	}
	n = min(n, int64(len(*cs))<<popChunkBits)
	for id := int64(0); id < n; id++ {
		visit(id, &(*cs)[id>>popChunkBits][id&(popChunkSize-1)])
	}
}

// reset empties the table.
func (t *popTable) reset() {
	t.grow.Lock()
	t.chunks.Store(nil)
	t.grow.Unlock()
}

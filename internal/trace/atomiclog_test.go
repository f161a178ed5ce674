package trace

import (
	"runtime"
	"sync"
	"testing"
)

// accessLog is the reference an AtomicLog is checked against: the
// journal as a plain slice, counted by walking it.
type accessLog []Record

func (l accessLog) counts(numFiles int) []int {
	counts := make([]int, numFiles)
	for _, r := range l {
		if r.FileID >= 0 && r.FileID < numFiles {
			counts[r.FileID]++
		}
	}
	return counts
}

func TestAtomicLogSequentialMatchesAccessLog(t *testing.T) {
	var al AtomicLog
	var ref accessLog
	for i := 0; i < 2500; i++ { // crosses a chunk boundary (1024)
		r := Record{TimeS: float64(i), Op: Read, FileID: i % 7, Size: int64(i)}
		seq := al.Append(r)
		if seq != int64(i) {
			t.Fatalf("Append %d returned seq %d", i, seq)
		}
		r.Seq = int64(i)
		ref = append(ref, r)
	}
	if al.Len() != len(ref) {
		t.Fatalf("Len %d vs reference %d", al.Len(), len(ref))
	}
	snap := al.Snapshot()
	if len(snap) != len(ref) {
		t.Fatalf("Snapshot %d records vs %d", len(snap), len(ref))
	}
	for i := range snap {
		if snap[i] != ref[i] {
			t.Fatalf("record %d: %+v vs %+v", i, snap[i], ref[i])
		}
	}
	for _, n := range []int{0, 3, 7, 20} {
		a, b := al.Counts(n), ref.counts(n)
		for id := range a {
			if a[id] != b[id] {
				t.Fatalf("Counts(%d)[%d] = %d vs %d", n, id, a[id], b[id])
			}
		}
	}
}

func TestAtomicLogConcurrentAppends(t *testing.T) {
	var al AtomicLog
	const (
		writers = 8
		perW    = 600 // total 4800: several chunk-directory grows
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				al.Append(Record{TimeS: 1, Op: Read, FileID: w, Size: 1})
			}
		}(w)
	}
	wg.Wait()
	if al.Len() != writers*perW {
		t.Fatalf("Len = %d, want %d (lost appends)", al.Len(), writers*perW)
	}
	snap := al.Snapshot()
	if len(snap) != writers*perW {
		t.Fatalf("Snapshot has %d records, want %d", len(snap), writers*perW)
	}
	// Sequence numbers must be dense and in order.
	for i, r := range snap {
		if r.Seq != int64(i) {
			t.Fatalf("record %d has Seq %d", i, r.Seq)
		}
	}
	// Per-writer counts must be exact: no record lost or duplicated.
	counts := al.Counts(writers)
	for w, c := range counts {
		if c != perW {
			t.Fatalf("writer %d count %d, want %d", w, c, perW)
		}
	}
}

func TestAtomicLogReadersDuringAppends(t *testing.T) {
	var al AtomicLog
	const total = 3000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			al.Append(Record{TimeS: float64(i), Op: Read, FileID: i % 5, Size: 1})
		}
	}()
	// Concurrent readers must always observe a consistent prefix: ordered
	// seqs, monotone lengths. Gosched keeps this loop from starving the
	// appender on a single-core machine.
	prevLen := 0
	for {
		select {
		case <-done:
			if got := len(al.Snapshot()); got != total {
				t.Fatalf("final snapshot %d records, want %d", got, total)
			}
			return
		default:
			runtime.Gosched()
		}
		snap := al.Snapshot()
		if len(snap) < prevLen {
			t.Fatalf("snapshot shrank: %d -> %d", prevLen, len(snap))
		}
		prevLen = len(snap)
		last := int64(-1)
		for _, r := range snap {
			if r.Seq <= last {
				t.Fatalf("snapshot seqs out of order: %d after %d", r.Seq, last)
			}
			last = r.Seq
		}
		al.Counts(5)
	}
}

func TestAtomicLogEmpty(t *testing.T) {
	var al AtomicLog
	if al.Len() != 0 {
		t.Fatalf("empty Len = %d", al.Len())
	}
	if got := al.Snapshot(); len(got) != 0 {
		t.Fatalf("empty Snapshot = %v", got)
	}
	if got := al.Counts(3); len(got) != 3 || got[0]+got[1]+got[2] != 0 {
		t.Fatalf("empty Counts = %v", got)
	}
}

// TestAtomicLogScanFrom: the tail scan must visit exactly the records at
// or past the mark, in order — the contract the replication epoch flush
// leans on to stay O(delta) per tick.
func TestAtomicLogScanFrom(t *testing.T) {
	var l AtomicLog
	for i := 0; i < 2500; i++ { // spans three chunks
		l.Append(Record{FileID: i})
	}
	var seqs []int64
	l.ScanFrom(1000, func(r Record) {
		if r.FileID != int(r.Seq) {
			t.Fatalf("record %d carries file id %d", r.Seq, r.FileID)
		}
		seqs = append(seqs, r.Seq)
	})
	if len(seqs) != 1500 || seqs[0] != 1000 || seqs[len(seqs)-1] != 2499 {
		t.Fatalf("scan from 1000 visited %d records [%d..%d], want 1500 [1000..2499]",
			len(seqs), seqs[0], seqs[len(seqs)-1])
	}
	// Past the end and negative marks are safe.
	l.ScanFrom(int64(l.Len()), func(Record) { t.Fatal("visited past the end") })
	n := 0
	l.ScanFrom(-5, func(Record) { n++ })
	if n != 2500 {
		t.Fatalf("negative mark visited %d, want all 2500", n)
	}
}

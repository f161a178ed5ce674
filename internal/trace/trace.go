// Package trace defines the file-access trace format used throughout
// EEVFS: the workload generators emit traces, the storage server replays
// them against the cluster, and the append-only access log (Section IV of
// the paper) derives file popularity from them.
package trace

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Op is the request kind.
type Op uint8

const (
	// Read fetches a whole file.
	Read Op = iota
	// Write stores/overwrites a whole file.
	Write
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Record is one file request in a trace.
type Record struct {
	Seq    int64   // position in the trace, 0-based
	TimeS  float64 // arrival time, seconds since trace start
	Op     Op
	FileID int   // dense file identifier, 0-based
	Size   int64 // request size in bytes (whole-file in EEVFS)
}

// Trace is an ordered request stream over a dense file-id space, plus the
// per-file sizes the placement layer needs.
type Trace struct {
	Records   []Record
	FileSizes []int64 // indexed by FileID; len is the file count
}

// NumFiles returns the size of the file-id space.
func (t *Trace) NumFiles() int { return len(t.FileSizes) }

// Duration returns the arrival time of the last record (0 for an empty
// trace). The run itself may finish later because of queueing.
func (t *Trace) Duration() float64 {
	if len(t.Records) == 0 {
		return 0
	}
	return t.Records[len(t.Records)-1].TimeS
}

// Validate checks internal consistency: sequence numbering, nondecreasing
// arrival times, file ids within range, and positive sizes.
func (t *Trace) Validate() error {
	for i := range t.FileSizes {
		if t.FileSizes[i] <= 0 {
			return fmt.Errorf("trace: file %d has non-positive size %d", i, t.FileSizes[i])
		}
	}
	prev := -1.0
	for i, r := range t.Records {
		if r.Seq != int64(i) {
			return fmt.Errorf("trace: record %d has seq %d", i, r.Seq)
		}
		if r.TimeS < prev {
			return fmt.Errorf("trace: record %d time %g precedes %g", i, r.TimeS, prev)
		}
		prev = r.TimeS
		if r.FileID < 0 || r.FileID >= len(t.FileSizes) {
			return fmt.Errorf("trace: record %d references file %d of %d", i, r.FileID, len(t.FileSizes))
		}
		if r.Size <= 0 {
			return fmt.Errorf("trace: record %d has non-positive size %d", i, r.Size)
		}
	}
	return nil
}

// Counts returns per-file access counts (reads and writes).
func (t *Trace) Counts() []int {
	counts := make([]int, t.NumFiles())
	for _, r := range t.Records {
		counts[r.FileID]++
	}
	return counts
}

// header tags the serialized format so stale files fail loudly.
const header = "eevfs-trace/1"

// maxPrealloc bounds how many entries Parse reserves from a
// header-declared count before any data lines have been read.
const maxPrealloc = 1 << 16

// Write serializes the trace in a line-oriented text format:
//
//	eevfs-trace/1
//	files <n>
//	size <fileID> <bytes>        (one per file)
//	records <n>
//	<seq> <time> <r|w> <fileID> <size>
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, header)
	fmt.Fprintf(bw, "files %d\n", len(t.FileSizes))
	for i, sz := range t.FileSizes {
		fmt.Fprintf(bw, "size %d %d\n", i, sz)
	}
	fmt.Fprintf(bw, "records %d\n", len(t.Records))
	for _, r := range t.Records {
		op := "r"
		if r.Op == Write {
			op = "w"
		}
		fmt.Fprintf(bw, "%d %s %s %d %d\n",
			r.Seq, strconv.FormatFloat(r.TimeS, 'g', -1, 64), op, r.FileID, r.Size)
	}
	return bw.Flush()
}

// Parse reads a trace in the format emitted by Write.
func Parse(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := func() (string, error) {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return "", err
			}
			return "", io.ErrUnexpectedEOF
		}
		return sc.Text(), nil
	}

	h, err := line()
	if err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if h != header {
		return nil, fmt.Errorf("trace: bad header %q", h)
	}

	var nFiles int
	h, err = line()
	if err != nil {
		return nil, fmt.Errorf("trace: reading file count: %w", err)
	}
	if _, err := fmt.Sscanf(h, "files %d", &nFiles); err != nil || nFiles < 0 {
		return nil, fmt.Errorf("trace: bad file count line %q", h)
	}

	// The counts in the header are untrusted input: cap the upfront
	// allocation and grow as lines actually arrive, so a bogus
	// "files 999999999" header cannot demand gigabytes before the
	// first missing line is noticed.
	t := &Trace{FileSizes: make([]int64, 0, min(nFiles, maxPrealloc))}
	for i := 0; i < nFiles; i++ {
		h, err = line()
		if err != nil {
			return nil, fmt.Errorf("trace: reading size %d: %w", i, err)
		}
		var id int
		var sz int64
		if _, err := fmt.Sscanf(h, "size %d %d", &id, &sz); err != nil {
			return nil, fmt.Errorf("trace: bad size line %q", h)
		}
		if id != i {
			return nil, fmt.Errorf("trace: size line out of order: got file %d, want %d", id, i)
		}
		t.FileSizes = append(t.FileSizes, sz)
	}

	var nRecs int
	h, err = line()
	if err != nil {
		return nil, fmt.Errorf("trace: reading record count: %w", err)
	}
	if _, err := fmt.Sscanf(h, "records %d", &nRecs); err != nil || nRecs < 0 {
		return nil, fmt.Errorf("trace: bad record count line %q", h)
	}

	if nRecs > 0 {
		t.Records = make([]Record, 0, min(nRecs, maxPrealloc))
	}
	for i := 0; i < nRecs; i++ {
		h, err = line()
		if err != nil {
			return nil, fmt.Errorf("trace: reading record %d: %w", i, err)
		}
		fields := strings.Fields(h)
		if len(fields) != 5 {
			return nil, fmt.Errorf("trace: bad record line %q", h)
		}
		seq, err1 := strconv.ParseInt(fields[0], 10, 64)
		tm, err2 := strconv.ParseFloat(fields[1], 64)
		fid, err3 := strconv.Atoi(fields[3])
		sz, err4 := strconv.ParseInt(fields[4], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return nil, fmt.Errorf("trace: bad record line %q", h)
		}
		var op Op
		switch fields[2] {
		case "r":
			op = Read
		case "w":
			op = Write
		default:
			return nil, fmt.Errorf("trace: bad op %q in %q", fields[2], h)
		}
		t.Records = append(t.Records, Record{Seq: seq, TimeS: tm, Op: op, FileID: fid, Size: sz})
	}

	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// RankByCount orders file ids by descending access count, breaking ties by
// ascending file id (deterministic). Files with zero accesses are
// included, after all accessed files. It is a counting sort, O(ids +
// spread of the counts), while the counts spread over at most
// countingSpread values per id, as access counts do; wider spreads fall
// back to a comparison sort with the same order.
func RankByCount(counts []int) []int {
	ids := make([]int, len(counts))
	if len(counts) == 0 {
		return ids
	}
	lo, hi := slices.Min(counts), slices.Max(counts)
	if uint(hi-lo) >= uint(countingSpread*len(counts)) {
		for i := range ids {
			ids[i] = i
		}
		slices.SortFunc(ids, func(a, b int) int {
			return cmp.Or(cmp.Compare(counts[b], counts[a]), cmp.Compare(a, b))
		})
		return ids
	}
	// next[hi-c] is where the next id with count c goes: the highest
	// count's bucket first, and ids in ascending order within a bucket.
	next := make([]int, hi-lo+1)
	for _, c := range counts {
		next[hi-c]++
	}
	pos := 0
	for b, n := range next {
		next[b], pos = pos, pos+n
	}
	for id, c := range counts {
		ids[next[hi-c]] = id
		next[hi-c]++
	}
	return ids
}

// countingSpread bounds RankByCount's bucket array at this many buckets
// per id.
const countingSpread = 16

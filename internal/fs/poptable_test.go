package fs

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"eevfs/internal/metadata"
	"eevfs/internal/prefetch"
	"eevfs/internal/proto"
	"eevfs/internal/trace"
)

// registerFiles places files with the given ids on a server the way a
// follower learns of them: the namespace entry, the size slot and the id
// horizon, with no node involved.
func registerFiles(t *testing.T, srv *Server, ids []int) []metadata.FileInfo {
	t.Helper()
	srv.log.mu.Lock()
	defer srv.log.mu.Unlock()
	fis := make([]metadata.FileInfo, len(ids))
	for i, id := range ids {
		fis[i] = metadata.FileInfo{Name: fmt.Sprintf("f%d", id), ID: id, Size: int64(100 + id), Node: id % len(srv.nodes.all)}
		if err := srv.ns.apply(proto.RepOp{
			Kind: proto.RepOpCreate, Name: fis[i].Name, ID: int64(id), Size: fis[i].Size, Node: int64(fis[i].Node),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return fis
}

// TestPopularityMatchesAccessLog is the equivalence oracle for replacing
// the paper's request log by its per-file fold: one seeded access stream
// — out-of-order times, ids in three chunks, ids whose file is deleted,
// eight concurrent appenders — goes into the server's table and into the
// reference log (a plain slice of records), and everything the server
// derives from popularity must come out the same as a walk of the log
// gives. So must it when the log reaches a second table as client access
// reports do: cut at random into runs of one file's records, each folded
// in as one (count, first, last).
func TestPopularityMatchesAccessLog(t *testing.T) {
	var ids []int
	for id := 0; id < 40; id++ {
		ids = append(ids, id)
	}
	ids = append(ids, 1022, 1023, 1024, 1025, 2047, 2048, 2500) // chunk edges and grows
	deleted := map[int]bool{3: true, 1024: true, 2500: true}
	popServer := func() (*Server, []metadata.FileInfo) {
		_, srv, _ := testCluster(t, 2, nil)
		fis := registerFiles(t, srv, ids)
		for id := range deleted {
			srv.ns.meta.Delete(fmt.Sprintf("f%d", id))
		}
		return srv, fis
	}
	srv, fis := popServer()

	rng := rand.New(rand.NewSource(16))
	const appenders, perAppender = 8, 2500
	var ref []trace.Record
	streams := make([][]trace.Record, appenders)
	for a := range streams {
		for i := 0; i < perAppender; i++ {
			// Zipf-ish: low indexes are hot; index 1 is touched once only
			// (no hint below two observations), index 2 never.
			fi := fis[int(float64(len(fis))*rng.Float64()*rng.Float64())]
			if fi.ID == 1 || fi.ID == 2 {
				continue
			}
			r := trace.Record{TimeS: 1000 * rng.Float64(), Op: trace.Read, FileID: fi.ID, Size: fi.Size}
			streams[a] = append(streams[a], r)
			ref = append(ref, r)
		}
	}
	once := trace.Record{TimeS: 77, Op: trace.Read, FileID: 1, Size: fis[1].Size}
	streams[0] = append(streams[0], once)
	ref = append(ref, once)

	var wg sync.WaitGroup
	for _, recs := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, r := range recs {
				srv.ns.pop.slot(int64(r.FileID)).note(r.TimeS)
			}
		}()
	}
	wg.Wait()

	// The second table: the log shuffled, then cut into runs of at most
	// eight records of one file, each run folded in at once.
	reported, _ := popServer()
	byFile := map[int][]trace.Record{}
	for _, i := range rng.Perm(len(ref)) {
		byFile[ref[i].FileID] = append(byFile[ref[i].FileID], ref[i])
	}
	folds := 0
	for id, recs := range byFile {
		for len(recs) > 0 {
			run := recs[:1+rng.Intn(min(8, len(recs)))]
			recs = recs[len(run):]
			first, last := run[0].TimeS, run[0].TimeS
			for _, r := range run {
				first, last = min(first, r.TimeS), max(last, r.TimeS)
			}
			reported.ns.pop.slot(int64(id)).fold(int64(len(run)), first, last)
			folds++
		}
	}
	if folds <= len(byFile) || folds >= len(ref) {
		t.Fatalf("%d folds of %d records over %d files: the cut is degenerate", folds, len(ref), len(byFile))
	}
	for _, srv := range []*Server{srv, reported} {
		matchesLog(t, srv, fis, ref, deleted)
	}
}

// matchesLog checks everything srv derives from popularity against a
// walk of the reference log ref over files fis.
func matchesLog(t *testing.T, srv *Server, fis []metadata.FileInfo, ref []trace.Record, deleted map[int]bool) {
	t.Helper()
	// The reference: what a walk of the whole log derives.
	numFiles := int(srv.ns.nextID.Load())
	refSizes := make([]int64, numFiles)
	for _, fi := range fis {
		refSizes[fi.ID] = fi.Size
	}
	refCounts := make([]int, numFiles)
	refFirst, refLast := map[int]float64{}, map[int]float64{}
	for _, r := range ref {
		refCounts[r.FileID]++
		if f, ok := refFirst[r.FileID]; !ok || r.TimeS < f {
			refFirst[r.FileID] = r.TimeS
		}
		refLast[r.FileID] = max(refLast[r.FileID], r.TimeS)
	}
	refHints := map[int][]proto.FileHint{}
	for _, fi := range fis { // id order, as the table is walked
		if c := refCounts[fi.ID]; c >= 2 && refLast[fi.ID] > refFirst[fi.ID] && !deleted[fi.ID] {
			refHints[fi.Node] = append(refHints[fi.Node], proto.FileHint{
				FileID: int64(fi.ID), MeanIntervalSec: (refLast[fi.ID] - refFirst[fi.ID]) / float64(c-1),
			})
		}
	}

	if got := srv.AccessCount(); got != len(ref) {
		t.Fatalf("table counted %d accesses, log holds %d", got, len(ref))
	}
	counts, sizes := srv.ns.popularity()
	for _, k := range []int{0, 1, 5, 20, numFiles} {
		got, err := prefetch.Select(counts, sizes, k, 0)
		want, werr := prefetch.Select(refCounts, refSizes, k, 0)
		if err != nil || werr != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("Select(k=%d): table ranks %v (%v), log ranks %v (%v)", k, got, err, want, werr)
		}
	}
	visited := 0
	srv.ns.pop.each(int64(numFiles), func(id int64, sl *popSlot) {
		visited++
		count, first, last := sl.live()
		if count != int64(refCounts[id]) || (count > 0 && (first != refFirst[int(id)] || last != refLast[int(id)])) {
			t.Errorf("file %d: table folds (%d, %g, %g), log gives (%d, %g, %g)",
				id, count, first, last, refCounts[id], refFirst[int(id)], refLast[int(id)])
		}
	})
	if visited != numFiles {
		t.Fatalf("walked %d slots of %d ids", visited, numFiles)
	}
	if got := srv.ns.hintsPerNode(); !reflect.DeepEqual(got, refHints) {
		t.Fatalf("hints diverge from the log walk:\n got %v\nwant %v", got, refHints)
	}
	if len(refHints[0])+len(refHints[1]) < 30 {
		t.Fatalf("stream too thin to mean anything: %d hinted files", len(refHints[0])+len(refHints[1]))
	}
	// A horizon below the populated ids must not visit them.
	visited = 0
	srv.ns.pop.each(1, func(int64, *popSlot) { visited++ })
	if visited != 1 {
		t.Fatalf("horizon 1 visited %d slots, want 1", visited)
	}
}

// TestAccessStateBounded: the server keeps nothing per lookup. A million
// accesses over a fixed namespace must leave the heap where it was (the
// raw journal this replaced retained 48 bytes for each).
func TestAccessStateBounded(t *testing.T) {
	_, srv, _ := testCluster(t, 2, nil)
	ids := make([]int, 1000)
	for i := range ids {
		ids[i] = i
	}
	fis := registerFiles(t, srv, ids)
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	for _, fi := range fis {
		srv.journalAccess(fi)
	}
	before := heap()
	const accesses = 1_000_000
	for i := 0; i < accesses; i++ {
		srv.journalAccess(fis[i%len(fis)])
	}
	if grew := heap() - before; grew >= 1<<20 {
		t.Fatalf("%d accesses grew the heap by %d bytes, want < 1 MiB", accesses, grew)
	}
	if got := srv.AccessCount(); got != accesses+len(fis) {
		t.Fatalf("counted %d accesses, want %d", got, accesses+len(fis))
	}
}

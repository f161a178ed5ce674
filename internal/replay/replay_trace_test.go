package replay

import (
	"bytes"
	"strings"
	"testing"

	"eevfs/internal/trace"
	"eevfs/internal/workload"
)

// TestBerkeleyTraceFileEndToEnd is the full prototype methodology in one
// test: generate the Berkeley-web-style workload, serialize it to the
// on-disk trace format, parse it back (the path an operator-supplied
// trace file takes), populate a live cluster by popularity, and replay it
// twice — once cold (NPF: no prefetch, so no buffer-disk hits) and once
// after the top-k prefetch (PF: the working set is covered, so reads hit
// the buffer disks).
func TestBerkeleyTraceFileEndToEnd(t *testing.T) {
	orig, err := workload.Synthetic(workload.SyntheticConfig{
		NumFiles: 24, NumRequests: 50, WorkingSet: 6, ZipfS: 1.1,
		MeanSize: 30_000, InterArrival: 0, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Round-trip through the serialized format, as a real trace would
	// arrive.
	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Parse(&buf)
	if err != nil {
		t.Fatalf("parsing a trace the writer produced: %v", err)
	}
	if len(tr.Records) != len(orig.Records) || len(tr.FileSizes) != len(orig.FileSizes) {
		t.Fatalf("round trip changed shape: %d/%d records, %d/%d files",
			len(tr.Records), len(orig.Records), len(tr.FileSizes), len(orig.FileSizes))
	}

	cl := liveCluster(t, 2, nil)
	opts := Options{}
	if err := PopulateByPopularity(cl, tr, opts); err != nil {
		t.Fatal(err)
	}

	npf, err := Replay(cl, tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if npf.Errors != 0 || npf.Reads != len(tr.Records) {
		t.Fatalf("NPF replay: reads=%d errors=%d, want %d/0", npf.Reads, npf.Errors, len(tr.Records))
	}
	if npf.BufferHits != 0 {
		t.Fatalf("NPF replay recorded %d buffer hits with nothing prefetched", npf.BufferHits)
	}

	if _, err := cl.Prefetch(8); err != nil {
		t.Fatal(err)
	}
	pf, err := Replay(cl, tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if pf.Errors != 0 {
		t.Fatalf("PF replay: %d errors", pf.Errors)
	}
	if pf.BufferHits == 0 {
		t.Fatal("PF replay hit the buffer disks zero times after prefetching the working set")
	}
	if pf.HitRatio() < 0.9 {
		t.Errorf("PF hit ratio %.2f, want >= 0.9 (working set 6 within k=8)", pf.HitRatio())
	}
}

// TestParseMalformedTraces: every way a hand-edited or truncated trace
// file can be wrong must yield a parse error naming the problem, never a
// silently wrong trace.
func TestParseMalformedTraces(t *testing.T) {
	good := "eevfs-trace/1\nfiles 2\nsize 0 100\nsize 1 200\nrecords 1\n0 0.5 r 1 200\n"
	if _, err := trace.Parse(strings.NewReader(good)); err != nil {
		t.Fatalf("baseline trace rejected: %v", err)
	}
	cases := []struct{ name, in string }{
		{"empty", ""},
		{"bad header", "not-a-trace/9\nfiles 0\nrecords 0\n"},
		{"missing file count", "eevfs-trace/1\n"},
		{"bad file count", "eevfs-trace/1\nfiles lots\nrecords 0\n"},
		{"negative file count", "eevfs-trace/1\nfiles -2\nrecords 0\n"},
		{"truncated sizes", "eevfs-trace/1\nfiles 2\nsize 0 100\nrecords 0\n"},
		{"bad size line", "eevfs-trace/1\nfiles 1\nsize 0 tiny\nrecords 0\n"},
		{"out-of-order sizes", "eevfs-trace/1\nfiles 2\nsize 1 200\nsize 0 100\nrecords 0\n"},
		{"missing record count", "eevfs-trace/1\nfiles 1\nsize 0 100\n"},
		{"bad record count", "eevfs-trace/1\nfiles 1\nsize 0 100\nrecords some\n"},
		{"truncated records", "eevfs-trace/1\nfiles 1\nsize 0 100\nrecords 2\n0 0.5 r 0 100\n"},
		{"bad op", "eevfs-trace/1\nfiles 1\nsize 0 100\nrecords 1\n0 0.5 x 0 100\n"},
		{"bad record field", "eevfs-trace/1\nfiles 1\nsize 0 100\nrecords 1\n0 soon r 0 100\n"},
		{"short record line", "eevfs-trace/1\nfiles 1\nsize 0 100\nrecords 1\n0 0.5 r\n"},
	}
	for _, tc := range cases {
		if _, err := trace.Parse(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: Parse accepted a malformed trace", tc.name)
		}
	}
}

// TestReplayParsedTraceValidates: a parsed trace that references file ids
// outside its size table must be rejected by the replay entry points
// (Validate runs before any network traffic).
func TestReplayParsedTraceValidates(t *testing.T) {
	in := "eevfs-trace/1\nfiles 1\nsize 0 100\nrecords 1\n0 0.5 r 7 100\n"
	tr, err := trace.Parse(strings.NewReader(in))
	if err != nil {
		// Parse may reject out-of-range ids itself; that is fine too.
		return
	}
	if err := Populate(nil, tr, Options{}); err == nil {
		t.Error("Populate accepted a trace with out-of-range file ids")
	}
	if _, err := Replay(nil, tr, Options{}); err == nil {
		t.Error("Replay accepted a trace with out-of-range file ids")
	}
}

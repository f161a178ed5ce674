package replay

import (
	"testing"

	"eevfs/internal/fs"
	"eevfs/internal/trace"
	"eevfs/internal/workload"
)

// liveCluster boots one server over nodes latency-injecting nodes at
// 5000x model time, adjusted by node when it is set, and returns a client
// to it; all of it closes when t ends.
func liveCluster(t *testing.T, nodes int, node func(c *fs.NodeConfig)) *fs.Client {
	t.Helper()
	l, err := fs.StartLocal(fs.LocalConfig{Nodes: nodes, Servers: 1, Dir: t.TempDir(),
		Node: func(_ int, c *fs.NodeConfig) {
			c.TimeScale, c.InjectLatency = 5000, true
			if node != nil {
				node(c)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	cl, err := fs.DialCluster(l.Addrs, fs.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func smallWebTrace(t *testing.T) *trace.Trace {
	t.Helper()
	tr, err := workload.Synthetic(workload.SyntheticConfig{
		NumFiles: 30, NumRequests: 60, WorkingSet: 8, ZipfS: 1.1,
		MeanSize: 40_000, InterArrival: 0, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestContentDeterministicAndVerifiable(t *testing.T) {
	a := Content(5, 1000)
	b := Content(5, 1000)
	if string(a) != string(b) {
		t.Fatal("content not deterministic")
	}
	if !Verify(5, a) {
		t.Fatal("Verify rejected its own content")
	}
	if Verify(6, a) {
		t.Fatal("Verify accepted wrong file id")
	}
	a[10] ^= 0xFF
	if Verify(5, a) {
		t.Fatal("Verify accepted corrupted data")
	}
}

func TestContentDiffersAcrossFiles(t *testing.T) {
	if string(Content(1, 64)) == string(Content(2, 64)) {
		t.Fatal("two files share content")
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.FileName(3) != "replay-f000003.dat" {
		t.Errorf("FileName = %q", o.FileName(3))
	}
	if o.scaledSize(100) != 100 {
		t.Errorf("default scale changed size")
	}
	o.SizeScale = 1000
	if o.scaledSize(100) != 1 {
		t.Errorf("scaled size floor = %d, want 1", o.scaledSize(100))
	}
}

func TestPopulateAndReplayEndToEnd(t *testing.T) {
	cl := liveCluster(t, 2, nil)
	tr := smallWebTrace(t)
	opts := Options{SizeScale: 1}

	if err := Populate(cl, tr, opts); err != nil {
		t.Fatal(err)
	}
	res, err := Replay(cl, tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reads != 60 || res.Errors != 0 {
		t.Fatalf("reads=%d errors=%d", res.Reads, res.Errors)
	}
	if res.BufferHits != 0 {
		t.Fatalf("unprefetched replay recorded %d buffer hits", res.BufferHits)
	}
	if res.Response.N != 60 || res.Response.Mean <= 0 {
		t.Fatalf("response summary %+v", res.Response)
	}

	// Prefetch the hot set; the rerun should hit the buffer on every
	// read (the working set is 8 files, all within K=10).
	if _, err := cl.Prefetch(10); err != nil {
		t.Fatal(err)
	}
	res2, err := Replay(cl, tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res2.HitRatio() != 1 {
		t.Fatalf("post-prefetch hit ratio %.2f, want 1.0", res2.HitRatio())
	}
}

func TestPopulateByPopularityOrders(t *testing.T) {
	cl := liveCluster(t, 2, nil)
	tr := smallWebTrace(t)
	opts := Options{}
	if err := PopulateByPopularity(cl, tr, opts); err != nil {
		t.Fatal(err)
	}
	// All files exist and are readable regardless of creation order.
	data, _, err := cl.Read(opts.FileName(0))
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(0, data) {
		t.Fatal("file 0 corrupted")
	}
}

func TestReplayWithWrites(t *testing.T) {
	cl := liveCluster(t, 2, nil)
	tr, err := workload.Synthetic(workload.SyntheticConfig{
		NumFiles: 10, NumRequests: 30, MeanSize: 10_000,
		MU: 3, InterArrival: 0, WriteFraction: 0.4, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{}
	if err := Populate(cl, tr, opts); err != nil {
		t.Fatal(err)
	}
	res, err := Replay(cl, tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reads+res.Writes != 30 || res.Errors != 0 {
		t.Fatalf("reads=%d writes=%d errors=%d", res.Reads, res.Writes, res.Errors)
	}
	if res.Writes == 0 {
		t.Fatal("no writes replayed")
	}
	if res.WriteResponse.N != res.Writes {
		t.Fatal("write response sampler inconsistent")
	}
}

func TestReplayPacing(t *testing.T) {
	cl := liveCluster(t, 2, nil)
	tr, err := workload.Synthetic(workload.SyntheticConfig{
		NumFiles: 2, NumRequests: 5, MeanSize: 1000,
		MU: 0, InterArrival: 1.0, Seed: 1, // 4 s of trace time
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{TimeScale: 100} // compress to ~40 ms
	if err := Populate(cl, tr, opts); err != nil {
		t.Fatal(err)
	}
	res, err := Replay(cl, tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.WallSeconds < 0.04 {
		t.Fatalf("pacing ignored: wall %.3fs, want >= 0.04", res.WallSeconds)
	}
	if res.WallSeconds > 2 {
		t.Fatalf("pacing too slow: wall %.3fs", res.WallSeconds)
	}
}

func TestReplayCountsErrorsForMissingFiles(t *testing.T) {
	cl := liveCluster(t, 2, nil)
	tr := smallWebTrace(t)
	// No Populate: every read fails, but Replay completes.
	res, err := Replay(cl, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != len(tr.Records) || res.Reads != 0 {
		t.Fatalf("errors=%d reads=%d", res.Errors, res.Reads)
	}
}

func TestReplayRejectsInvalidTrace(t *testing.T) {
	cl := liveCluster(t, 2, nil)
	bad := &trace.Trace{
		FileSizes: []int64{10},
		Records:   []trace.Record{{Seq: 5, FileID: 0, Size: 10}},
	}
	if _, err := Replay(cl, bad, Options{}); err == nil {
		t.Fatal("invalid trace accepted")
	}
	if err := Populate(cl, bad, Options{}); err == nil {
		t.Fatal("invalid trace accepted by Populate")
	}
}

package fs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"

	"eevfs/internal/proto"
	"eevfs/internal/telemetry"
)

// patternedContent builds size bytes whose value at offset i is a
// deterministic function of (seed, i) — unique per file, so a chunk
// delivered to the wrong stream or landed at the wrong offset changes
// the bytes and is caught by comparison.
func patternedContent(seed int64, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte((seed*31 + int64(i)) * 2654435761 >> 16)
	}
	return b
}

func TestStreamReadRoundTrip(t *testing.T) {
	cl, _, _ := testCluster(t, 2, nil)
	content := patternedContent(1, 300<<10) // > one default chunk
	if err := cl.Create("big.dat", content); err != nil {
		t.Fatal(err)
	}
	r, err := cl.OpenRead("big.dat", StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != int64(len(content)) {
		t.Fatalf("Size = %d, want %d", r.Size(), len(content))
	}
	if r.FromBuffer() {
		t.Fatal("unprefetched stream claimed to come from the buffer disk")
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("streamed content mismatch")
	}
}

func TestStreamWriteRoundTrip(t *testing.T) {
	cl, _, _ := testCluster(t, 2, nil)
	if err := cl.Create("w.dat", []byte("placeholder")); err != nil {
		t.Fatal(err)
	}
	content := patternedContent(2, 700<<10)
	buffered, err := cl.WriteFrom("w.dat", int64(len(content)), bytes.NewReader(content))
	if err != nil {
		t.Fatal(err)
	}
	if buffered {
		t.Fatal("buffered=true with the write buffer disabled")
	}
	// Both paths must see the streamed bytes: the RPC read and a second
	// stream.
	got, _, err := cl.Read("w.dat")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("RPC read after streamed write mismatch")
	}
	var sb bytes.Buffer
	if _, _, err := cl.ReadTo("w.dat", &sb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sb.Bytes(), content) {
		t.Fatal("streamed read after streamed write mismatch")
	}
}

func TestStreamReadFromBufferAfterPrefetch(t *testing.T) {
	cl, _, _ := testCluster(t, 1, nil)
	content := patternedContent(3, 64<<10)
	if err := cl.Create("hot.dat", content); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Read("hot.dat"); err != nil { // popularity signal
		t.Fatal(err)
	}
	if _, err := cl.Prefetch(1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, fromBuffer, err := cl.ReadTo("hot.dat", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !fromBuffer {
		t.Fatal("prefetched file streamed from the data disk")
	}
	if !bytes.Equal(buf.Bytes(), content) {
		t.Fatal("buffered stream content mismatch")
	}
}

// TestStreamWriteInvalidatesMirror pins the mirror-invalidation
// interplay: a streamed write to a prefetched file must drop the stale
// buffer-disk replica, exactly like the RPC write path.
func TestStreamWriteInvalidatesMirror(t *testing.T) {
	cl, _, _ := testCluster(t, 1, nil)
	old := patternedContent(4, 32<<10)
	if err := cl.Create("m.dat", old); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Read("m.dat"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Prefetch(1); err != nil {
		t.Fatal(err)
	}
	fresh := patternedContent(5, 48<<10)
	if _, err := cl.WriteFrom("m.dat", int64(len(fresh)), bytes.NewReader(fresh)); err != nil {
		t.Fatal(err)
	}
	got, fromBuffer, err := cl.Read("m.dat")
	if err != nil {
		t.Fatal(err)
	}
	if fromBuffer {
		t.Fatal("read after streamed write served a stale buffer mirror")
	}
	if !bytes.Equal(got, fresh) {
		t.Fatal("read after streamed write returned old content")
	}
}

func TestStreamWriteBuffered(t *testing.T) {
	cl, _, _ := testCluster(t, 1, func(cfg *NodeConfig) { cfg.WriteBuffer = true })
	if err := cl.Create("b.dat", []byte("seed")); err != nil {
		t.Fatal(err)
	}
	content := patternedContent(6, 100<<10)
	buffered, err := cl.WriteFrom("b.dat", int64(len(content)), bytes.NewReader(content))
	if err != nil {
		t.Fatal(err)
	}
	if !buffered {
		t.Fatal("write buffer enabled but streamed write was not absorbed")
	}
	got, fromBuffer, err := cl.Read("b.dat")
	if err != nil {
		t.Fatal(err)
	}
	if !fromBuffer {
		t.Fatal("dirty buffered write not served from the buffer disk")
	}
	if !bytes.Equal(got, content) {
		t.Fatal("buffered streamed write content mismatch")
	}
}

// TestStreamStriped exercises the chunked path over a striped layout:
// the stream must reassemble the stripe chunks in order, and a streamed
// write must land them where the RPC read path looks.
func TestStreamStriped(t *testing.T) {
	cl, _, _ := testCluster(t, 1, func(cfg *NodeConfig) { cfg.StripeChunkBytes = 16 << 10 })
	content := patternedContent(7, 100<<10) // 7 stripe chunks
	if err := cl.Create("s.dat", content); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, _, err := cl.ReadTo("s.dat", &buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), content) {
		t.Fatal("striped streamed read mismatch")
	}
	fresh := patternedContent(8, 90<<10)
	if _, err := cl.WriteFrom("s.dat", int64(len(fresh)), bytes.NewReader(fresh)); err != nil {
		t.Fatal(err)
	}
	got, _, err := cl.Read("s.dat")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fresh) {
		t.Fatal("RPC read after striped streamed write mismatch")
	}
}

// TestStreamEarlyCloseLeavesConnectionUsable pins the tombstone
// semantics: abandoning a stream mid-transfer must not poison the
// connection — later streams and RPCs on the same endpoint still work.
func TestStreamEarlyCloseLeavesConnectionUsable(t *testing.T) {
	cl, _, _ := testCluster(t, 1, nil)
	content := patternedContent(9, 1<<20)
	if err := cl.Create("e.dat", content); err != nil {
		t.Fatal(err)
	}
	r, err := cl.OpenRead("e.dat", StreamOptions{ChunkBytes: 4 << 10, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	small := make([]byte, 8192)
	if _, err := io.ReadFull(r, small); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil { // abandon the remaining ~1 MB
		t.Fatal(err)
	}
	// The same node endpoint must serve fresh work on the same
	// connection generation.
	got, _, err := cl.Read("e.dat")
	if err != nil {
		t.Fatalf("RPC read after early stream close: %v", err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("content mismatch after early close")
	}
	var buf bytes.Buffer
	if _, _, err := cl.ReadTo("e.dat", &buf); err != nil {
		t.Fatalf("stream after early stream close: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), content) {
		t.Fatal("second stream content mismatch")
	}
}

// TestStreamOpenOnMetadataServerRejected pins byte-compatibility with
// non-streaming v2 peers: a daemon without a data plane answers a stream
// open with a typed remote error and keeps the connection healthy.
func TestStreamOpenOnMetadataServerRejected(t *testing.T) {
	cl, srv, _ := testCluster(t, 1, nil)
	if err := cl.Create("x.dat", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	ep := proto.NewEndpoint(srv.Addr(), nil, proto.TransportConfig{Retries: -1})
	defer ep.Close()
	_, err := ep.OpenReadStream(proto.StreamOpenReq{FileID: 1}, telemetry.SpanContext{})
	var re *proto.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RemoteError", err)
	}
	// The rejection must not have poisoned the connection.
	if _, _, err := ep.Call(proto.TListReq, nil); err != nil {
		t.Fatalf("round trip after rejected stream open: %v", err)
	}
}

func TestStreamReadMissingFileTyped(t *testing.T) {
	cl, _, _ := testCluster(t, 1, nil)
	_, err := cl.OpenRead("ghost", StreamOptions{})
	if !errors.Is(err, ErrFileNotFound) {
		t.Fatalf("err = %v, want ErrFileNotFound", err)
	}
}

func TestStreamWriteSizeMismatchRejected(t *testing.T) {
	cl, _, _ := testCluster(t, 1, nil)
	if err := cl.Create("short.dat", []byte("seed")); err != nil {
		t.Fatal(err)
	}
	w, err := cl.OpenWrite("short.dat", 1000, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(make([]byte, 500)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("short streamed write committed")
	}
	// A source that runs past the declared size fails the copy before the
	// extra bytes leave, and the close aborts instead of committing.
	w, err = cl.OpenWrite("short.dat", 1000, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(w, struct{ io.Reader }{bytes.NewReader(make([]byte, 1500))}); err == nil {
		t.Fatal("copying 1500 bytes into a 1000-byte stream succeeded")
	}
	if err := w.Close(); err == nil {
		t.Fatal("overrun streamed write committed")
	}
	// The placeholder content must have survived the aborted writes.
	got, _, err := cl.Read("short.dat")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("seed")) {
		t.Fatal("aborted streamed write clobbered the file")
	}
}

// TestStreamPropertyConcurrentIntegrity is the seeded random property
// test: ≥8 concurrent streams with random chunk-size/window schedules,
// each file carrying unique patterned contents, reassembled
// byte-identical while plain RPC reads interleave on the same
// connections. A single crossed chunk anywhere changes some file's
// bytes.
func TestStreamPropertyConcurrentIntegrity(t *testing.T) {
	cl, _, _ := testCluster(t, 2, func(cfg *NodeConfig) { cfg.StripeChunkBytes = 32 << 10 })
	const files = 10
	contents := make([][]byte, files)
	rng := rand.New(rand.NewSource(20260808))
	for i := range contents {
		size := 1<<10 + rng.Intn((2<<20)-(1<<10)) // 1 KB .. 2 MB
		contents[i] = patternedContent(int64(100+i), size)
		if err := cl.Create(fmt.Sprintf("p%02d.dat", i), contents[i]); err != nil {
			t.Fatal(err)
		}
	}

	const rounds = 3
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		errs := make(chan error, files*2)
		for i := 0; i < files; i++ {
			// Per-stream random schedule, derived deterministically from
			// the base seed so failures reproduce.
			chunk := 512 + rng.Intn(64<<10)
			window := 1 + rng.Intn(16)
			wg.Add(1)
			go func(i, chunk, window int) {
				defer wg.Done()
				name := fmt.Sprintf("p%02d.dat", i)
				r, err := cl.OpenRead(name, StreamOptions{ChunkBytes: chunk, Window: window})
				if err != nil {
					errs <- fmt.Errorf("%s: open: %w", name, err)
					return
				}
				got, err := io.ReadAll(r)
				r.Close()
				if err != nil {
					errs <- fmt.Errorf("%s: read: %w", name, err)
					return
				}
				if !bytes.Equal(got, contents[i]) {
					errs <- fmt.Errorf("%s: streamed bytes differ (len %d vs %d)",
						name, len(got), len(contents[i]))
				}
			}(i, chunk, window)
			// Interleave plain RPC reads on the same multiplexed
			// connections.
			if i%3 == 0 {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					name := fmt.Sprintf("p%02d.dat", i)
					got, _, err := cl.Read(name)
					if err != nil {
						errs <- fmt.Errorf("%s: rpc read: %w", name, err)
						return
					}
					if !bytes.Equal(got, contents[i]) {
						errs <- fmt.Errorf("%s: rpc bytes differ", name)
					}
				}(i)
			}
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		if t.Failed() {
			t.FailNow()
		}
	}
}

// TestStreamReadAllocsFlat is the O(chunk) memory guard: streaming a
// 16 MB file must allocate barely more than streaming a 1 MB file —
// the per-chunk buffers are pooled, so total allocations are flat in
// file size, not linear.
func TestStreamReadAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; allocation counts are meaningless")
	}
	cl, _, _ := testCluster(t, 1, func(cfg *NodeConfig) {
		cfg.InjectLatency = false // pure data-path measurement
	})
	small := patternedContent(11, 1<<20)
	large := patternedContent(12, 16<<20)
	if err := cl.Create("small.dat", small); err != nil {
		t.Fatal(err)
	}
	if err := cl.Create("large.dat", large); err != nil {
		t.Fatal(err)
	}

	measure := func(name string, size int64) uint64 {
		// Warm up the pools and connection once.
		var warm bytes.Buffer
		if _, _, err := cl.ReadTo(name, &warm); err != nil {
			t.Fatal(err)
		}
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := cl.OpenRead(name, StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		n, err := io.Copy(io.Discard, r)
		r.Close()
		if err != nil || n != size {
			t.Fatalf("copy %s: n=%d err=%v", name, n, err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	smallAlloc := measure("small.dat", int64(len(small)))
	largeAlloc := measure("large.dat", int64(len(large)))
	t.Logf("alloc: 1MB=%d bytes, 16MB=%d bytes", smallAlloc, largeAlloc)
	// 16x the data must not cost anywhere near 16x the allocations. The
	// bound is generous (pool misses under GC pressure, socket buffers)
	// but far below the 16 MB a whole-payload path would copy.
	if largeAlloc > smallAlloc+8<<20 {
		t.Fatalf("streaming allocations scale with file size: 1MB=%d, 16MB=%d",
			smallAlloc, largeAlloc)
	}
}

// TestStreamReadAllocsFlatAtLargeChunks: the chunk pools hold every
// negotiable chunk size, so in 1 MiB chunks a 16 MiB streamed read
// allocates no more than a 1 MiB one does — on the client, which
// fills a pooled chunk per inbound frame, as on the node, which reads the
// disk into one per stream. Each size counts its least of three reads, and
// the bound allows one chunk: a pool miss, when a goroutine gets a chunk
// on another P than the one that put it back.
func TestStreamReadAllocsFlatAtLargeChunks(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; allocation counts are meaningless")
	}
	const chunk = 1 << 20
	cl, _, _ := testCluster(t, 1, func(cfg *NodeConfig) { cfg.InjectLatency = false })
	readTo := func(name string) (int64, error) { // ReadTo, asking for 1 MiB chunks
		r, err := cl.OpenRead(name, StreamOptions{ChunkBytes: chunk})
		if err != nil {
			return 0, err
		}
		defer r.Close()
		return io.Copy(io.Discard, r)
	}
	measure := func(name string, size int) uint64 {
		if err := cl.Create(name, patternedContent(14, size)); err != nil {
			t.Fatal(err)
		}
		if _, err := readTo(name); err != nil { // warm the pools
			t.Fatal(err)
		}
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		least := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if n, err := readTo(name); err != nil || n != int64(size) {
				t.Fatalf("streamed read of %s: n=%d err=%v", name, n, err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	small, large := measure("small.dat", 1<<20), measure("large.dat", 16<<20)
	t.Logf("alloc at %d-byte chunks: 1 MiB=%d bytes, 16 MiB=%d bytes", chunk, small, large)
	if large > small+chunk {
		t.Fatalf("a 16 MiB ReadTo allocates %d bytes, a 1 MiB one %d: chunks of %d bytes are not pooled", large, small, chunk)
	}
}

// trickleReader hands out at most 1000 bytes per Read, as a pipe or a
// slow producer does.
type trickleReader struct{ r io.Reader }

func (t trickleReader) Read(p []byte) (int, error) { return t.r.Read(p[:min(len(p), 1000)]) }

// writeSizes records the length of every Write it is handed.
type writeSizes struct {
	sizes []int
	buf   bytes.Buffer
}

func (w *writeSizes) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return w.buf.Write(p)
}

// TestStreamsMoveWholeChunks: both directions of a stream move whole
// negotiated chunks, whatever the caller's reader or writer. WriteFrom
// gathers a source that trickles 1000 bytes per Read into 256 KiB data
// frames — exactly size/chunk of them reach the node — and ReadTo hands
// the caller's writer each received chunk whole, in one Write.
func TestStreamsMoveWholeChunks(t *testing.T) {
	reg := telemetry.NewRegistry()
	cl, _, _ := testCluster(t, 1, func(cfg *NodeConfig) {
		cfg.InjectLatency = false
		cfg.Metrics = reg
	})
	const size, chunk = 8 << 20, proto.DefaultStreamChunk
	content := patternedContent(15, size)
	if err := cl.Create("w.dat", []byte("seed")); err != nil {
		t.Fatal(err)
	}
	frames := reg.Counter("node.stream.chunks")
	before := frames.Value()
	if _, err := cl.WriteFrom("w.dat", size, trickleReader{bytes.NewReader(content)}); err != nil {
		t.Fatal(err)
	}
	if got := frames.Value() - before; got != size/chunk {
		t.Errorf("an %d-byte WriteFrom reached the node as %d data frames, want %d", size, got, size/chunk)
	}
	var w writeSizes
	if _, _, err := cl.ReadTo("w.dat", &w); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.buf.Bytes(), content) {
		t.Fatalf("ReadTo delivered %d bytes that differ from the %d written", w.buf.Len(), size)
	}
	if len(w.sizes) != size/chunk || slices.ContainsFunc(w.sizes, func(n int) bool { return n != chunk }) {
		t.Errorf("ReadTo called Write %d times (sizes %v), want %d calls of %d bytes", len(w.sizes), w.sizes[:min(len(w.sizes), 8)], size/chunk, chunk)
	}
}

// TestReadAllocsPerOp is the RPC read path's allocation ratchet: a 16 KiB
// Client.Read of a prefetched file against an in-process cluster — client, server and node all
// counted — allocates the payload the caller gets to keep plus small
// change. The node builds its reply in the pooled chunk it reads the disk
// into and the connection's write half sends that chunk in place, so a
// second payload-sized allocation per read (there were two once: the
// encoder's, and a frame buffer's growth) trips this.
func TestReadAllocsPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; allocation counts are meaningless")
	}
	cl, _, _ := testCluster(t, 1, func(cfg *NodeConfig) {
		cfg.InjectLatency = false
	})
	const size, reads = 16 << 10, 2000 // enough reads that a chunk-pool miss (a 32 KiB reply chunk) is small change too
	if err := cl.Create("hot.dat", patternedContent(13, size)); err != nil {
		t.Fatal(err)
	}
	read := func(wantBuffer bool) {
		if data, hit, err := cl.Read("hot.dat"); err != nil || len(data) != size || hit != wantBuffer {
			t.Fatalf("read: %d bytes, from buffer %v, err %v", len(data), hit, err)
		}
	}
	read(false)
	if n, err := cl.Prefetch(1); err != nil || n != 1 {
		t.Fatalf("prefetch: %d files, err %v", n, err)
	}
	for i := 0; i < 20; i++ { // warm the pools, the connections, the write halves' buffers
		read(true)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		read(true)
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / reads
	objs := (after.Mallocs - before.Mallocs) / reads
	t.Logf("%d bytes in %d objects per 16 KiB read", perOp, objs)
	if perOp > size+4<<10 {
		t.Fatalf("a 16 KiB read allocates %d bytes, want at most the payload + 4 KiB", perOp)
	}
}

// TestSmallReadStreamIsOneWrite: a read stream of a one-chunk file costs
// the node one socket write — open response, data frame and end leave
// together — counted on an otherwise idle node by proto.write.flushes.
func TestSmallReadStreamIsOneWrite(t *testing.T) {
	reg := telemetry.NewRegistry()
	cl, _, _ := testClusterSrv(t, 1, func(cfg *NodeConfig) {
		cfg.InjectLatency = false
		cfg.Metrics = reg
	}, func(c *ServerConfig) { c.Health.ProbeInterval = -1 })
	content := patternedContent(16, 1<<10)
	if err := cl.Create("s.dat", content); err != nil {
		t.Fatal(err)
	}
	// A peer can have a write's bytes before the node has counted the
	// write: the handlers' return settles the streams' counts, and the
	// bound leaves room for the create's two replies to the server.
	flushes := reg.Counter("proto.write.flushes")
	handled := reg.Histogram("node.op.stream.read.seconds", nil)
	writesAfter := func(streams int64) int64 {
		for deadline := time.Now().Add(10 * time.Second); handled.Count() < streams && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		return flushes.Value()
	}
	const reads, late = 30, 2
	var before int64
	for i := 0; i <= reads; i++ {
		if i == 1 { // the first opens the connection
			before = writesAfter(1)
		}
		var buf bytes.Buffer
		if _, _, err := cl.ReadTo("s.dat", &buf); err != nil || !bytes.Equal(buf.Bytes(), content) {
			t.Fatalf("ReadTo: %d bytes, err %v", buf.Len(), err)
		}
	}
	// A write may also carry the next stream's frames, if the flusher is
	// slow to look again: at most one write per stream, not three.
	if got := writesAfter(reads+1) - before; got > reads+late {
		t.Fatalf("%d one-chunk read streams cost the node %d writes, want at most %d", reads, got, reads+late)
	}
}

// TestSmallReadToAllocsPerOp is the stream read path's allocation
// ratchet: a 1 KiB Client.ReadTo of a file on a data disk against an
// in-process cluster — client, server and node all counted. The node
// takes the extent's descriptor from its open extents and sends the
// stream in one write; an open file per read, a stall timer per stream
// or a formatted annotation trips this.
func TestSmallReadToAllocsPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; allocation counts are meaningless")
	}
	cl, _, _ := testCluster(t, 1, func(cfg *NodeConfig) {
		cfg.InjectLatency = false
	})
	const size, reads = 1 << 10, 2000
	if err := cl.Create("small.dat", patternedContent(17, size)); err != nil {
		t.Fatal(err)
	}
	read := func() {
		if n, hit, err := cl.ReadTo("small.dat", io.Discard); err != nil || n != size || hit {
			t.Fatalf("ReadTo: %d bytes, from buffer %v, err %v", n, hit, err)
		}
	}
	for i := 0; i < 20; i++ { // warm the pools, the connections, the open extents
		read()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / reads
	objs := (after.Mallocs - before.Mallocs) / reads
	t.Logf("%d bytes in %d objects per 1 KiB ReadTo", perOp, objs)
	// Measured on 2 cores: 37 objects and 3389-3663 bytes (40 objects and
	// 3682 bytes with a new idle timer per service, 53 objects and 3887
	// bytes before the open extents and the one-write stream). The bounds
	// allow 4 objects and about 20 % of bytes over that.
	if objs > 41 || perOp > 4608 {
		t.Fatalf("a 1 KiB ReadTo allocates %d objects and %d bytes, want at most 41 and 4608", objs, perOp)
	}
}

package fs

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"eevfs/internal/proto"
)

// TestStreamConnCapRejectedTyped pins the per-connection stream bound
// and — the part that matters — that hitting it can never wedge the
// connection's demux loop: stream handlers live outside the RPC worker
// pool, so the loop keeps reading credit frames and every admitted
// stream still finishes while excess opens are rejected with a typed
// ErrNodeUnavailable.
func TestStreamConnCapRejectedTyped(t *testing.T) {
	cl, _, _ := testCluster(t, 1, nil)
	content := patternedContent(99, 64<<10)
	if err := cl.Create("capped", content); err != nil {
		t.Fatal(err)
	}

	// Window-1, min-chunk streams: each node handler parks in SendChunk
	// long before its 64 KB is sent, so the streams pile up server-side.
	opts := StreamOptions{ChunkBytes: proto.MinStreamChunk, Window: 1}
	var open []*FileReader
	defer func() {
		for _, r := range open {
			r.Close()
		}
	}()
	rejected := 0
	for i := 0; i < connStreams+6; i++ {
		r, err := cl.OpenRead("capped", opts)
		if err != nil {
			if !errors.Is(err, ErrNodeUnavailable) {
				t.Fatalf("open %d: err = %v, want ErrNodeUnavailable", i, err)
			}
			rejected++
			continue
		}
		open = append(open, r)
	}
	if rejected == 0 {
		t.Fatalf("%d window-1 streams on one connection never hit the cap", connStreams+6)
	}
	if len(open) != connStreams {
		t.Fatalf("%d streams admitted, want %d", len(open), connStreams)
	}

	// The demux loop must still be feeding the admitted streams: drain
	// one end to end, credits and all, and check the bytes.
	got, err := io.ReadAll(open[0])
	if err != nil {
		t.Fatalf("reading an admitted stream at the cap: %v", err)
	}
	if !bytes.Equal(got, content) {
		t.Fatalf("admitted stream returned %d bytes, want %d", len(got), len(content))
	}
	open[0].Close()

	// Freeing one slot makes the next open admissible again, and plain
	// round trips on the same connection never stopped working.
	// The node releases the slot after it has sent the stream's last
	// frame, so the client's Close can return first: poll briefly.
	var r *FileReader
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		var err error
		if r, err = cl.OpenRead("capped", opts); err == nil {
			break
		}
		if !errors.Is(err, ErrNodeUnavailable) || time.Now().After(deadline) {
			t.Fatalf("open after a slot freed: %v", err)
		}
	}
	open[0] = r
	if _, _, err := cl.Read("capped"); err != nil {
		t.Fatalf("RPC read with the connection at the stream cap: %v", err)
	}
}

// errAfterReader fails with errBoom once n bytes have been produced.
type errAfterReader struct{ n int }

var errBoom = errors.New("reader exploded")

func (r *errAfterReader) Read(p []byte) (int, error) {
	if r.n <= 0 {
		return 0, errBoom
	}
	if len(p) > r.n {
		p = p[:r.n]
	}
	for i := range p {
		p[i] = 0xAB
	}
	r.n -= len(p)
	return len(p), nil
}

// TestWriteFromSourceFailureLeavesFileIntact pins WriteFrom's failure
// path: the source reader dying mid-copy, after a whole chunk has left,
// surfaces its own error and the file's previous content stays visible
// (the .part protocol never exposes the partial write).
func TestWriteFromSourceFailureLeavesFileIntact(t *testing.T) {
	cl, _, _ := testCluster(t, 1, nil)
	old := patternedContent(7, 4<<10)
	if err := cl.Create("wf.dat", old); err != nil {
		t.Fatal(err)
	}
	_, err := cl.WriteFrom("wf.dat", 1<<20, &errAfterReader{n: 300 << 10})
	if !errors.Is(err, errBoom) {
		t.Fatalf("WriteFrom with a dying source: err = %v, want the source's own", err)
	}
	got, _, err := cl.Read("wf.dat")
	if err != nil {
		t.Fatalf("read after failed WriteFrom: %v", err)
	}
	if !bytes.Equal(got, old) {
		t.Fatalf("failed WriteFrom disturbed the old content (%d bytes, want %d)", len(got), len(old))
	}
}

// TestReadToMissingFileTyped pins ReadTo's open-failure path: the
// sentinel classification survives the streaming wrapper.
func TestReadToMissingFileTyped(t *testing.T) {
	cl, _, _ := testCluster(t, 1, nil)
	var sink bytes.Buffer
	_, _, err := cl.ReadTo("no-such-file", &sink)
	if !errors.Is(err, ErrFileNotFound) {
		t.Fatalf("err = %v, want ErrFileNotFound", err)
	}
	if sink.Len() != 0 {
		t.Fatalf("ReadTo wrote %d bytes for a missing file", sink.Len())
	}
}

package fs

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"eevfs/internal/metadata"
	"eevfs/internal/proto"
)

// Persistence cost against table size. Before the log, every mutation
// rewrote the whole table, so these ran ~64x slower at 64 k pre-existing
// files than at 1 k; with one appended record per mutation and
// checkpoints amortised over the log they must be flat.

// scaleNode starts a buffered-write node that already holds files
// entries, checkpointed so the log threshold sits at its steady state.
func scaleNode(tb testing.TB, files int) *Node {
	tb.Helper()
	n, err := StartNode(persistNodeConfig(tb.TempDir(), "127.0.0.1:0"))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { n.Close() })
	for id := 0; id < files; id++ {
		if err := n.files.apply(nodeRecord{Entry: metadata.NodeEntry{ID: id, Size: 4096, Disk: id % 2}, Present: true}); err != nil {
			tb.Fatal(err)
		}
	}
	n.checkpoint()
	return n
}

// scaleServer is scaleNode's counterpart: a standalone persisted server
// whose namespace (and whose node's) already holds files entries. The
// returned endpoint speaks to it.
func scaleServer(tb testing.TB, files int) *proto.Endpoint {
	tb.Helper()
	n := scaleNode(tb, files)
	srv, err := StartServer(ServerConfig{
		Addr: "127.0.0.1:0", NodeAddrs: []string{n.Addr()},
		StateFile: filepath.Join(tb.TempDir(), "state"),
		Logger:    quietLog, Health: HealthConfig{ProbeInterval: -1},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	for id := 0; id < files; id++ {
		if err := srv.ns.meta.Put(metadata.FileInfo{Name: fmt.Sprintf("old-%06d", id), ID: id, Size: 4096}); err != nil {
			tb.Fatal(err)
		}
	}
	srv.ns.nextID.Store(int64(files))
	srv.checkpoint()
	ep := proto.NewEndpoint(srv.Addr(), nil, proto.TransportConfig{})
	tb.Cleanup(func() { ep.Close() })
	return ep
}

// serverCreates issues creates [from, to) and returns the time taken.
func serverCreates(tb testing.TB, ep *proto.Endpoint, from, to int) time.Duration {
	start := time.Now()
	for i := from; i < to; i++ {
		req := proto.CreateReq{Name: fmt.Sprintf("new-%d", i), Size: 4096}
		if _, _, err := ep.Call(proto.TCreateReq, req.Encode()); err != nil {
			tb.Fatal(err)
		}
	}
	return time.Since(start)
}

// nodeWrites issues buffered writes [from, to), cycling over 256 of the
// node's files, and returns the time taken.
func nodeWrites(tb testing.TB, n *Node, data []byte, from, to int) time.Duration {
	start := time.Now()
	for i := from; i < to; i++ {
		buffered, err := n.write(int64(i%256), data)
		if err != nil || !buffered {
			tb.Fatalf("write %d: buffered=%v err=%v", i, buffered, err)
		}
	}
	return time.Since(start)
}

var scaleSizes = []int{1 << 10, 64 << 10}

func BenchmarkServerCreate(b *testing.B) {
	for _, files := range scaleSizes {
		b.Run(fmt.Sprintf("files=%d", files), func(b *testing.B) {
			ep := scaleServer(b, files)
			b.ResetTimer()
			serverCreates(b, ep, 0, b.N)
		})
	}
}

func BenchmarkNodeWriteBuffered(b *testing.B) {
	data := make([]byte, 4096)
	for _, files := range scaleSizes {
		b.Run(fmt.Sprintf("files=%d", files), func(b *testing.B) {
			n := scaleNode(b, files)
			b.ResetTimer()
			nodeWrites(b, n, data, 0, b.N)
		})
	}
}

// TestPersistCostFlatInTableSize holds the two benchmarks to the claim:
// the per-mutation cost with 64 k files is within 2x of the cost with
// 1 k. Each side is the fastest of five rounds, taken alternately so a
// slow spell of the host hits both; with three, a full parallel test run
// on two cores once measured 2.15x where the test alone measures under 1x.
func TestPersistCostFlatInTableSize(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const rounds, perRound = 5, 1500
	data := make([]byte, 4096)
	small, large := scaleSizes[0], scaleSizes[1]
	fastest := func(run func(files, round int) time.Duration) (s, l time.Duration) {
		for r := 0; r <= rounds; r++ {
			ds, dl := run(small, r), run(large, r)
			if r == 0 {
				continue // warm-up
			}
			if r == 1 || ds < s {
				s = ds
			}
			if r == 1 || dl < l {
				l = dl
			}
		}
		return s, l
	}
	check := func(what string, s, l time.Duration) {
		t.Logf("%s: %v/op at %d files, %v/op at %d", what, s/perRound, small, l/perRound, large)
		if l > 2*s {
			t.Errorf("%s costs %.1fx more with %d files than with %d; persistence is not O(1) per mutation",
				what, float64(l)/float64(s), large, small)
		}
	}

	eps := map[int]*proto.Endpoint{small: scaleServer(t, small), large: scaleServer(t, large)}
	s, l := fastest(func(files, r int) time.Duration {
		return serverCreates(t, eps[files], r*perRound, (r+1)*perRound)
	})
	check("server create", s, l)

	nodes := map[int]*Node{small: scaleNode(t, small), large: scaleNode(t, large)}
	s, l = fastest(func(files, r int) time.Duration {
		return nodeWrites(t, nodes[files], data, r*perRound, (r+1)*perRound)
	})
	check("node buffered write", s, l)
}

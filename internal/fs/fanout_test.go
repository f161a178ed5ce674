package fs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"eevfs/internal/faultnet"
	"eevfs/internal/proto"
	"eevfs/internal/simtest/leak"
)

// fanOutCluster boots two nodes behind one server whose server->node
// path runs over a fault-injecting network. Probes are off and the fail
// threshold is out of reach, so a failing node stays "healthy" and is
// still called.
func fanOutCluster(t *testing.T, mirror bool, tr proto.TransportConfig) (*Client, *Server, []*Node, *faultnet.Network) {
	t.Helper()
	leak.Check(t)
	serverNet := faultnet.New(1)
	cl, srv, nodes := testClusterSrv(t, 2, nil, func(cfg *ServerConfig) {
		cfg.Dialer, cfg.Transport, cfg.MirrorPrefetch = serverNet, tr, mirror
		cfg.Health = HealthConfig{FailThreshold: 1 << 20, ProbeInterval: -1}
	})
	return cl, srv, nodes, serverNet
}

// TestFanOutReportsLowestNodeError: when both nodes fail, Prefetch and
// Stats report node 0's error although node 1's arrives first (its
// connection is cut at once, node 0's round trip has to time out).
func TestFanOutReportsLowestNodeError(t *testing.T) {
	cl, _, nodes, serverNet := fanOutCluster(t, false, proto.TransportConfig{RTTimeout: 150 * time.Millisecond})
	for i := 0; i < 2; i++ { // round-robin: f0 on node 0, f1 on node 1
		name := fmt.Sprintf("f%d", i)
		if err := cl.Create(name, bytes.Repeat([]byte{'x'}, 1024)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := cl.Read(name); err != nil {
			t.Fatal(err)
		}
	}
	serverNet.Partition(nodes[0].Addr())
	serverNet.SetFault(nodes[1].Addr(), faultnet.Fault{DropAfterBytes: 1})

	if _, err := cl.Prefetch(2); err == nil || !strings.Contains(err.Error(), "prefetch on node 0") {
		t.Errorf("Prefetch with both nodes failing: %v, want node 0's error", err)
	}
	if _, err := cl.Stats(); err == nil || !strings.Contains(err.Error(), "stats from node 0") {
		t.Errorf("Stats with both nodes failing: %v, want node 0's error", err)
	}
}

// TestCloseWaitsForMirrorDeletes: the best-effort delete of a mirror copy
// that a write lookup or a delete starts in the background belongs to the
// server, so once Close has returned no such delete may still be inside
// its round trip to the node. The mirror node is slow, so the delete is in flight when Close is
// called; closing the endpoint under it would send it into its retry
// backoff, still alive long after Close.
func TestCloseWaitsForMirrorDeletes(t *testing.T) {
	ops := map[string]func(cl *Client) error{
		"write-lookup": func(cl *Client) error { _, err := cl.Write("hot", []byte("new bytes")); return err },
		"delete":       func(cl *Client) error { return cl.Delete("hot") },
	}
	for name, op := range ops {
		t.Run(name, func(t *testing.T) {
			cl, srv, nodes, serverNet := fanOutCluster(t, true, proto.TransportConfig{
				RTTimeout: 5 * time.Second, Retries: 1,
				RetryBase: 600 * time.Millisecond, RetryMax: 600 * time.Millisecond,
			})
			if err := cl.Create("hot", bytes.Repeat([]byte{'m'}, 2048)); err != nil {
				t.Fatal(err)
			}
			if _, _, err := cl.Read("hot"); err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Prefetch(1); err != nil {
				t.Fatal(err)
			}
			fi, _ := srv.ns.meta.LookupName("hot")
			mirror, has := fi.ReplicaNode()
			if !has {
				t.Fatal("prefetch did not mirror the file")
			}
			serverNet.SetFault(nodes[mirror].Addr(), faultnet.Fault{Latency: 100 * time.Millisecond})

			if err := op(cl); err != nil {
				t.Fatal(err)
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			// A delete goroutine that has called wg.Done may not have
			// returned yet; only one still inside the round trip is late.
			for stack := range leak.Take() {
				if strings.Contains(stack, "fs.(*Server).dropMirror") && strings.Contains(stack, "fs.(*nodeSet).roundTrip") {
					t.Errorf("still running after Server.Close: %s", stack)
				}
			}
		})
	}
}

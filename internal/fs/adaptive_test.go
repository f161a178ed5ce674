package fs

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"eevfs/internal/adaptive"
	"eevfs/internal/telemetry"
)

// adaptiveTestParams shrinks the churn detector so a handful of reads
// can trigger a re-prefetch.
func adaptiveTestParams() *adaptive.Params {
	p := adaptive.Defaults()
	p.ChurnWindow = 8
	p.ChurnCooldown = 2
	return &p
}

// TestAdaptivePolicyReprefetches: under -policy=adaptive the server must
// notice — with no client prefetch command — that the hot set it is
// serving is not buffered, re-prefetch it on its own, and serve the
// following reads from the buffer disks.
func TestAdaptivePolicyReprefetches(t *testing.T) {
	reg := telemetry.NewRegistry()
	cl, _, _ := testClusterSrv(t, 2, nil, func(c *ServerConfig) {
		c.Policy = "adaptive"
		c.AdaptiveParams = adaptiveTestParams()
		c.AdaptiveK = 4
		c.Metrics = reg
	})
	content := bytes.Repeat([]byte("drift"), 800)
	for i := 0; i < 4; i++ {
		if err := cl.Create(fmt.Sprintf("hot%d.dat", i), content); err != nil {
			t.Fatal(err)
		}
	}

	// Hammer the hot set: every read misses the (empty) buffered set, so
	// once the window fills the detector must fire and the background
	// recompute must stage these files. Poll until a read comes back
	// from a buffer disk.
	deadline := time.Now().Add(5 * time.Second)
	buffered := false
	for !buffered {
		if time.Now().After(deadline) {
			t.Fatalf("no read was served from the buffer after %d re-prefetches",
				reg.Counter("server.adaptive.reprefetches").Value())
		}
		for i := 0; i < 4 && !buffered; i++ {
			_, fromBuffer, err := cl.Read(fmt.Sprintf("hot%d.dat", i))
			if err != nil {
				t.Fatal(err)
			}
			buffered = fromBuffer
		}
	}
	if got := reg.Counter("server.adaptive.reprefetches").Value(); got < 1 {
		t.Fatalf("reads came from the buffer but the reprefetch counter reads %d", got)
	}
}

// TestAdaptivePolicyQuietWhenBufferedSetHolds: after the adaptive server
// has buffered the hot set, continued reads of the same files are hits —
// the detector must not keep firing re-prefetches.
func TestAdaptivePolicyQuietWhenBufferedSetHolds(t *testing.T) {
	reg := telemetry.NewRegistry()
	cl, _, _ := testClusterSrv(t, 2, nil, func(c *ServerConfig) {
		c.Policy = "adaptive"
		c.AdaptiveParams = adaptiveTestParams()
		c.AdaptiveK = 4
		c.Metrics = reg
	})
	content := bytes.Repeat([]byte("x"), 2048)
	for i := 0; i < 3; i++ {
		if err := cl.Create(fmt.Sprintf("f%d.dat", i), content); err != nil {
			t.Fatal(err)
		}
	}
	// Trigger the first recompute, then wait for it to land.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("server.adaptive.reprefetches").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("adaptive recompute never fired")
		}
		for i := 0; i < 3; i++ {
			if _, _, err := cl.Read(fmt.Sprintf("f%d.dat", i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	settled := reg.Counter("server.adaptive.reprefetches").Value()
	// A steady stream of the now-buffered hot set: pure hits, so the
	// miss fraction stays at zero and no further trigger is legal.
	for round := 0; round < 20; round++ {
		for i := 0; i < 3; i++ {
			if _, _, err := cl.Read(fmt.Sprintf("f%d.dat", i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := reg.Counter("server.adaptive.reprefetches").Value(); got != settled {
		t.Fatalf("reprefetches kept firing on a stable hot set: %d -> %d", settled, got)
	}
}

// TestAdaptivePolicyValidation: unknown policies and invalid parameter
// sets must be rejected at startup, and the static default must leave
// the adaptive machinery off.
func TestAdaptivePolicyValidation(t *testing.T) {
	if _, err := StartServer(ServerConfig{NodeAddrs: []string{"127.0.0.1:1"}, Policy: "zealous"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	bad := adaptive.Defaults()
	bad.ChurnThreshold = 2
	if _, err := StartServer(ServerConfig{NodeAddrs: []string{"127.0.0.1:1"}, Policy: "adaptive", AdaptiveParams: &bad}); err == nil {
		t.Fatal("invalid adaptive params accepted")
	}
	_, srv, _ := testCluster(t, 1, nil)
	if srv.policy != nil {
		t.Fatal("static server built a churn detector")
	}
}

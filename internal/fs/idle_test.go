package fs

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"eevfs/internal/disk"
	"eevfs/internal/simtime"
)

// Tests of the data disks' idle clock: it starts at StartNode, as the
// simulator's starts at replay start, and it stops at Close.

// diskSnapshot is one data disk's accounting, integrated up to the instant
// it was taken.
type diskSnapshot struct {
	at    simtime.Time
	state disk.PowerState
	stats disk.Stats
}

func snapshotDisk(n *Node, nd *nodeDisk) diskSnapshot {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	now := n.diskNow(nd)
	nd.d.Advance(now)
	return diskSnapshot{at: now, state: nd.d.State(), stats: nd.d.Stats()}
}

// TestUntouchedDataDisksSleep: with every create, write and read served by
// the buffer disk, no request ever reaches a data disk, and each one
// still spins down once its threshold has run from boot — and then draws
// standby power and nothing else.
func TestUntouchedDataDisksSleep(t *testing.T) {
	for _, inject := range []bool{false, true} {
		t.Run(fmt.Sprintf("inject=%v", inject), func(t *testing.T) {
			cfg := persistNodeConfig(t.TempDir(), "127.0.0.1:0")
			cfg.IdleThresholdSec = 5 // 2.5 ms at TimeScale 2000
			cfg.InjectLatency = inject
			n, err := StartNode(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			content := bytes.Repeat([]byte("eevfs"), 1000)
			for id := int64(0); id < 4; id++ {
				if err := n.create(id, int64(len(content))); err != nil {
					t.Fatal(err)
				}
				if buffered, err := n.write(id, content); err != nil || !buffered {
					t.Fatalf("write %d: buffered %v, %v", id, buffered, err)
				}
				if r, err := n.read(id); err != nil || !r.FromBuffer || !bytes.Equal(r.Data, content) {
					t.Fatalf("read %d: fromBuffer %v, %d bytes, %v", id, r.FromBuffer, len(r.Data), err)
				}
			}
			m := cfg.DataModel
			time.Sleep(n.clock.RealDuration(cfg.IdleThresholdSec + m.SpinDownSec))
			for _, nd := range n.data {
				waitDiskState(t, nd, disk.Standby)
			}

			first := make([]diskSnapshot, len(n.data))
			for i, nd := range n.data {
				first[i] = snapshotDisk(n, nd)
			}
			time.Sleep(n.clock.RealDuration(20)) // a later window of 20 model seconds
			for i, nd := range n.data {
				s := snapshotDisk(n, nd)
				if s.state != disk.Standby || s.stats.SpinDowns != 1 || s.stats.SpinUps != 0 || s.stats.Requests != 0 {
					t.Errorf("%s: %v after %d spin-downs, %d spin-ups, %d requests; want standby after 1, 0, 0",
						nd.label, s.state, s.stats.SpinDowns, s.stats.SpinUps, s.stats.Requests)
				}
				window := float64(s.at - first[i].at)
				got, want := s.stats.EnergyJ-first[i].stats.EnergyJ, m.PStandby*window
				if window <= 0 || math.Abs(got-want) > 1e-6*want {
					t.Errorf("%s: %.9f J over %.6f model s, want PStandby × window = %.9f J", nd.label, got, window, want)
				}
			}
		})
	}
}

// TestBootTimersStopOnClose: the timers StartNode arms die with the node.
// A node closed at once neither spins a disk down nor leaves an alarm's
// descriptor open; the same root, reopened, arms its disks again.
func TestBootTimersStopOnClose(t *testing.T) {
	cfg := persistNodeConfig(t.TempDir(), "127.0.0.1:0")
	cfg.IdleThresholdSec = 5
	cfg.TimeScale = 100 // the threshold is 50 ms
	cfg.InjectLatency = true
	start := func() *Node {
		t.Helper()
		n, err := StartNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	start().Close() // the runtime's poller opens its descriptors once
	before := fdCount(t)
	n := start()
	n.Close()
	if after := fdCount(t); after != before {
		t.Fatalf("%d descriptors open after Close, %d before StartNode", after, before)
	}
	ledger := func() (out []diskSnapshot) {
		for _, nd := range n.data {
			nd.mu.Lock()
			out = append(out, diskSnapshot{state: nd.d.State(), stats: nd.d.Stats()})
			nd.mu.Unlock()
		}
		return out
	}
	closed := ledger()
	time.Sleep(3 * n.clock.RealDuration(cfg.IdleThresholdSec))
	for i, s := range ledger() {
		if s.state != closed[i].state || s.stats != closed[i].stats {
			t.Errorf("%s changed after Close: %v %+v, was %v %+v",
				n.data[i].label, s.state, s.stats, closed[i].state, closed[i].stats)
		}
	}

	t.Run("restart", func(t *testing.T) {
		n := start()
		defer n.Close()
		for _, nd := range n.data {
			waitDiskState(t, nd, disk.Standby)
			if s := snapshotDisk(n, nd); s.stats.SpinDowns != 1 || s.stats.SpinUps != 0 {
				t.Errorf("%s: %d spin-downs, %d spin-ups after restart, want 1 and 0",
					nd.label, s.stats.SpinDowns, s.stats.SpinUps)
			}
		}
	})
}

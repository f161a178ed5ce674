package fs

import (
	"bytes"
	"io"
	"log"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"eevfs/internal/disk"
	"eevfs/internal/telemetry"
)

// Tests of injected disk waits (elapse): a wait ends at its modelled
// instant, busy process or idle, and the disk is charged exactly the
// model's dwell.

// startWaitNode starts a lone node that injects latency at TimeScale 100,
// with no idle timers.
func startWaitNode(t *testing.T, reg *telemetry.Registry) *Node {
	t.Helper()
	n, err := StartNode(NodeConfig{
		Addr:          "127.0.0.1:0",
		RootDir:       t.TempDir(),
		DataDisks:     2,
		DataModel:     disk.ModelType1,
		BufferModel:   disk.ModelType1,
		TimeScale:     100,
		InjectLatency: true,
		Logger:        log.New(io.Discard, "", 0),
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestInjectedWaitIsPrecise(t *testing.T) {
	n := startWaitNode(t, nil)
	t.Cleanup(func() { n.Close() })
	const want = 100 * time.Microsecond
	const bound = 400 * time.Microsecond // the runtime's poller alone gives ~1.07 ms
	median := func() time.Duration {
		nd := n.data[0]
		took := make([]time.Duration, 50)
		for i := range took {
			nd.mu.Lock()
			start := time.Now()
			n.elapse(nd, n.diskNow(nd), want.Seconds()*n.clock.Scale())
			took[i] = time.Since(start)
			nd.mu.Unlock()
		}
		slices.Sort(took)
		return took[len(took)/2]
	}

	t.Run("idle", func(t *testing.T) {
		if got := median(); got > bound {
			t.Fatalf("median %v wait took %v, want under %v", want, got, bound)
		}
	})
	// Every P has runnable work: the poller is not polled then, so the
	// wait must not rely on it.
	t.Run("busy", func(t *testing.T) {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		pass := func(in, out chan int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case v := <-in:
					select {
					case <-stop:
						return
					case out <- v:
					}
				}
			}
		}
		for range runtime.GOMAXPROCS(0) * 16 {
			ping, pong := make(chan int, 1), make(chan int)
			ping <- 0
			wg.Add(2)
			go pass(ping, pong)
			go pass(pong, ping)
		}
		got := median()
		close(stop)
		wg.Wait()
		if got > bound {
			t.Fatalf("median %v wait under load took %v, want under %v", want, got, bound)
		}
	})
}

// fdCount is the number of descriptors the process holds open.
func fdCount(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd:", err)
	}
	return len(fds)
}

func TestInjectedWaitsChargedAtTheModelledInstant(t *testing.T) {
	t.Run("alarms-closed", func(t *testing.T) {
		startWaitNode(t, nil).Close() // the runtime's poller opens its descriptors once
		before := fdCount(t)
		startWaitNode(t, nil).Close()
		if after := fdCount(t); after != before {
			t.Fatalf("%d descriptors open after Close, %d before StartNode", after, before)
		}
	})

	reg := telemetry.NewRegistry()
	cl, _, nodes := testCluster(t, 1, func(c *NodeConfig) {
		c.TimeScale = 100
		c.IdleThresholdSec = 0 // no timers: spin-downs happen only below
		c.Metrics = reg
	})
	n := nodes[0]
	content := bytes.Repeat([]byte("eevfs"), 4096)
	size := int64(len(content))
	if err := cl.Create("f", content); err != nil {
		t.Fatal(err)
	}
	entry := n.Files()[0]
	data, buf := n.data[entry.Disk], n.buffer
	for _, nd := range n.data {
		nd.mu.Lock()
		now := n.diskNow(nd)
		nd.d.BeginSpinDown(now)
		nd.d.CompleteSpinDown(now + 1)
		nd.mu.Unlock()
	}
	// The spin-downs ran the disks' clocks a model second ahead; once the
	// real clock is past them, no instant below is the disk's own floor.
	time.Sleep(n.clock.RealDuration(1.5))
	waits := reg.Histogram("node.disk.wait_late_us", nil)
	stats := func(nd *nodeDisk) disk.Stats {
		nd.mu.Lock()
		defer nd.mu.Unlock()
		nd.d.Advance(n.diskNow(nd))
		return nd.d.Stats()
	}
	// step runs op and checks what it added: model seconds per disk in
	// state, and the number of injected waits.
	step := func(name string, op func(), wantWaits int64, want map[*nodeDisk]map[disk.PowerState]float64) {
		t.Helper()
		before := map[*nodeDisk]disk.Stats{data: stats(data), buf: stats(buf)}
		count := waits.Count()
		op()
		if got := waits.Count() - count; got != wantWaits {
			t.Errorf("%s: %d injected waits observed, want %d", name, got, wantWaits)
		}
		for nd, states := range want {
			after := stats(nd)
			for _, s := range []disk.PowerState{disk.Active, disk.SpinningUp} {
				got := after.TimeInState[s] - before[nd].TimeInState[s]
				if math.Abs(got-states[s]) > 1e-9 {
					t.Errorf("%s: %s spent %.12f s %v, want exactly %.12f", name, nd.label, got, s, states[s])
				}
			}
		}
	}
	m := disk.ModelType1
	read := func(wantBuffer bool) func() {
		return func() {
			got, fromBuffer, err := cl.Read("f")
			if err != nil || fromBuffer != wantBuffer || !bytes.Equal(got, content) {
				t.Fatalf("read: fromBuffer %v, %d bytes, %v", fromBuffer, len(got), err)
			}
		}
	}

	step("miss", read(false), 2, map[*nodeDisk]map[disk.PowerState]float64{
		data: {disk.SpinningUp: m.SpinUpSec, disk.Active: m.ServiceTime(size)},
		buf:  {},
	})
	step("prefetch", func() { prefetchFile(t, n, int64(entry.ID)) }, 2, map[*nodeDisk]map[disk.PowerState]float64{
		data: {disk.Active: m.ServiceTime(size)},
		buf:  {disk.Active: m.SequentialTime(size)}, // a log append
	})
	const hits = 5
	step("hits", func() {
		for range hits {
			read(true)()
		}
	}, hits, map[*nodeDisk]map[disk.PowerState]float64{
		data: {},
		buf:  {disk.Active: hits * m.ServiceTime(size)},
	})
}

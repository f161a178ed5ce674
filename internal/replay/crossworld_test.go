package replay

import (
	"strings"
	"testing"
	"time"

	"eevfs/internal/cluster"
	"eevfs/internal/disk"
	"eevfs/internal/fs"
	"eevfs/internal/proto"
	"eevfs/internal/trace"
)

// TestUntouchedDataDisksSleepInBothWorlds feeds one trace whose every
// request the buffer disk serves to the simulator (cluster.Run) and to a
// live node (Replay), and asks both for each data disk's transitions:
// one spin-down once the idle threshold has run, no spin-up. The
// simulator's idle clock starts at replay start and the node's at
// StartNode; a node whose clock started at a disk's first service would
// leave these disks spinning.
//
// The simulator buffers writes only under its PF arms, so it runs the
// one that sleeps on the reactive threshold the node applies, Prefetch. Its files reach the buffer disk in its prefetch phase, the
// node's as buffered creates; either way every read of the trace hits.
func TestUntouchedDataDisksSleepInBothWorlds(t *testing.T) {
	const (
		files     = 4
		threshold = 5.0    // model seconds
		timeScale = 2000.0 // the node's: 5 model seconds are 2.5 ms
	)
	tr := &trace.Trace{FileSizes: make([]int64, files)}
	for i := range tr.FileSizes {
		tr.FileSizes[i] = 16 << 10
	}
	for i := 0; i < 16; i++ { // one read every 2 s: the trace outlasts the threshold
		id := i % files
		tr.Records = append(tr.Records, trace.Record{Seq: int64(i), TimeS: 2 * float64(i), Op: trace.Read, FileID: id, Size: tr.FileSizes[id]})
	}

	// The simulated world.
	cfg := cluster.Config{
		Nodes: []cluster.NodeConfig{{
			LinkMbps: 1000, DataModel: disk.ModelType1, BufferModel: disk.ModelType1, DataDisks: 2,
		}},
		IdleThresholdSec: threshold,
		Policy:           cluster.Prefetch,
		PrefetchCount:    files,
		WriteBuffer:      true,
		RouteLatencySec:  0.001,
	}
	sim, err := cluster.Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if sim.BufferHits != int64(len(tr.Records)) {
		t.Fatalf("simulator: %d of %d reads hit the buffer", sim.BufferHits, len(tr.Records))
	}
	simCounts := map[string][2]int{}
	for _, st := range sim.PerDisk {
		simCounts[st.Name] = [2]int{st.SpinDowns, st.SpinUps}
	}

	// The live world.
	cl := liveCluster(t, 1, func(c *fs.NodeConfig) {
		c.IdleThresholdSec, c.TimeScale, c.WriteBuffer = threshold, timeScale, true
	})
	opts := Options{TimeScale: timeScale}
	if err := Populate(cl, tr, opts); err != nil {
		t.Fatal(err)
	}
	live, err := Replay(cl, tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if live.Errors != 0 || live.BufferHits != len(tr.Records) {
		t.Fatalf("live: %d of %d reads hit the buffer, %d errors", live.BufferHits, len(tr.Records), live.Errors)
	}
	// The node's disks sleep on the real clock: wait for every data disk.
	var liveDisks []proto.DiskStats
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		st, err := cl.Stats()
		if err != nil {
			t.Fatal(err)
		}
		liveDisks = liveDisks[:0]
		asleep := true
		for _, d := range st.Disks {
			if strings.Contains(d.Name, "/data") {
				liveDisks = append(liveDisks, d)
				asleep = asleep && d.State == disk.Standby.String()
			}
		}
		if asleep || time.Now().After(deadline) {
			break
		}
	}

	if len(liveDisks) != cfg.DataDisksPerNode() {
		t.Fatalf("live: %d data disks reported, want %d", len(liveDisks), cfg.DataDisksPerNode())
	}
	for _, d := range liveDisks {
		got, want := [2]int{int(d.SpinDowns), int(d.SpinUps)}, simCounts[d.Name]
		if got != want || want != [2]int{1, 0} {
			t.Errorf("%s: live %d spin-downs/%d spin-ups (%s), simulated %d/%d; want 1/0 in both",
				d.Name, got[0], got[1], d.State, want[0], want[1])
		}
	}
}

package telemetry

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestEnergyLedgerAttribution(t *testing.T) {
	l := NewEnergyLedger(0)
	l.Attribute(0xabc, "file:1", "data.Active", 10)
	l.Attribute(0xabc, "file:1", "data.SpinningUp", 24)
	l.Attribute(0xdef, "file:2", "buffer.Active", 5)
	l.Attribute(0, "", "data.Standby", 2) // background dwell

	if got := l.TraceJ(0xabc); got != 34 {
		t.Fatalf("TraceJ = %v, want 34", got)
	}
	if got := l.TotalJ(); got != 41 {
		t.Fatalf("TotalJ = %v, want 41", got)
	}
	snap := l.Snapshot()
	if snap.BackgroundJ != 2 {
		t.Fatalf("background = %v", snap.BackgroundJ)
	}
	if snap.PerFile["file:1"] != 34 || snap.PerFile["file:2"] != 5 {
		t.Fatalf("per-file = %+v", snap.PerFile)
	}
	if snap.PerArm["data.Active"] != 10 || snap.PerArm["data.SpinningUp"] != 24 ||
		snap.PerArm["buffer.Active"] != 5 || snap.PerArm["data.Standby"] != 2 {
		t.Fatalf("per-arm = %+v", snap.PerArm)
	}
	if snap.PerTrace[fmt.Sprintf("%016x", uint64(0xabc))] != 34 {
		t.Fatalf("per-trace = %+v", snap.PerTrace)
	}
}

// TestEnergyLedgerConservation pins the invariant the e2e test leans on:
// total == background + sum over traces, exactly (same additions, same
// order per accumulator — only distribution differs).
func TestEnergyLedgerConservation(t *testing.T) {
	l := NewEnergyLedger(0)
	for i := 0; i < 1000; i++ {
		l.Attribute(uint64(i%7), fmt.Sprintf("file:%d", i%13), "data.Active", 0.1*float64(i))
	}
	snap := l.Snapshot()
	var traces float64
	for _, j := range snap.PerTrace {
		traces += j
	}
	if diff := math.Abs(snap.TotalJ - (snap.BackgroundJ + traces)); diff > 1e-9*snap.TotalJ {
		t.Fatalf("conservation broken: total %v vs background %v + traces %v",
			snap.TotalJ, snap.BackgroundJ, traces)
	}
}

func TestEnergyLedgerFIFOEviction(t *testing.T) {
	l := NewEnergyLedger(2)
	l.Attribute(1, "f1", "a", 1)
	l.Attribute(2, "f2", "a", 2)
	l.Attribute(3, "f3", "a", 3) // evicts trace 1 / file f1
	snap := l.Snapshot()
	if len(snap.PerTrace) != 2 || len(snap.PerFile) != 2 {
		t.Fatalf("maps not bounded: %d traces, %d files", len(snap.PerTrace), len(snap.PerFile))
	}
	if snap.EvictedTraces != 1 || snap.EvictedFiles != 1 {
		t.Fatalf("evictions = %d/%d", snap.EvictedTraces, snap.EvictedFiles)
	}
	if l.TraceJ(1) != 0 {
		t.Fatal("evicted trace still resolvable")
	}
	if l.TraceJ(3) != 3 {
		t.Fatalf("surviving trace = %v", l.TraceJ(3))
	}
	// Totals are never evicted.
	if l.TotalJ() != 6 {
		t.Fatalf("TotalJ = %v", l.TotalJ())
	}
}

func TestNilEnergyLedgerIsNoOp(t *testing.T) {
	var l *EnergyLedger
	l.Attribute(1, "f", "a", 1)
	if l.TotalJ() != 0 || l.TraceJ(1) != 0 {
		t.Fatal("nil ledger accumulated energy")
	}
	_ = l.Snapshot()
}

func TestWritePromFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("proto.calls").Add(7)
	r.Gauge("fs.disks.standby").Set(2)
	h := r.Histogram("fs.op.read.seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var sb strings.Builder
	if err := WriteProm(&sb, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE proto_calls counter",
		"proto_calls 7",
		"# TYPE fs_disks_standby gauge",
		"fs_disks_standby 2",
		`fs_op_read_seconds_bucket{le="0.1"} 1`,
		`fs_op_read_seconds_bucket{le="1"} 2`,
		`fs_op_read_seconds_bucket{le="+Inf"} 3`,
		"fs_op_read_seconds_count 3",
		"fs_op_read_seconds_p50",
		"fs_op_read_seconds_p99",
		"fs_op_read_seconds_p999",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramSnapshotQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q.seconds", []float64{0.001, 0.01, 0.1, 1, 10})
	for i := 0; i < 1000; i++ {
		h.Observe(0.005)
	}
	h.Observe(5)
	snap := r.Snapshot()
	hs := snap.Histograms["q.seconds"]
	if hs.P50 <= 0.001 || hs.P50 > 0.01 {
		t.Fatalf("p50 = %v", hs.P50)
	}
	if hs.P999 <= hs.P50 {
		t.Fatalf("p999 %v not above p50 %v", hs.P999, hs.P50)
	}
}

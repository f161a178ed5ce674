package netmodel

import (
	"math"
	"testing"
	"testing/quick"

	"eevfs/internal/simtime"
)

func TestTransferTime(t *testing.T) {
	l := NewLink("gig", 1000, 0) // 1 Gb/s = 125 MB/s
	// 125 MB should take exactly 1 s.
	if got := l.TransferTime(125e6); math.Abs(got-1) > 1e-12 {
		t.Fatalf("TransferTime = %g, want 1", got)
	}
	if l.TransferTime(0) != 0 || l.TransferTime(-1) != 0 {
		t.Fatal("zero/negative size should cost 0")
	}
}

func TestFastEthernetSlower(t *testing.T) {
	fast := NewLink("fe", 100, 0)
	gig := NewLink("ge", 1000, 0)
	if fast.TransferTime(1e6) <= gig.TransferTime(1e6) {
		t.Fatal("100 Mb/s should be slower than 1 Gb/s")
	}
}

func TestReserveIdleLink(t *testing.T) {
	l := NewLink("l", 100, 0.001)
	start, end := l.Reserve(5, 125e3) // 125 kB at 12.5 MB/s = 10 ms
	if start != 5 {
		t.Fatalf("start = %v, want 5", start)
	}
	if want := simtime.Time(5 + 0.001 + 0.01); math.Abs(float64(end-want)) > 1e-9 {
		t.Fatalf("end = %v, want %v", end, want)
	}
}

func TestReserveSerializesFIFO(t *testing.T) {
	l := NewLink("l", 1000, 0)
	_, end1 := l.Reserve(0, 125e6) // 1 s transfer
	start2, end2 := l.Reserve(0.5, 125e6)
	if start2 != end1 {
		t.Fatalf("second transfer starts at %v, want %v (after first)", start2, end1)
	}
	if math.Abs(float64(end2-2)) > 1e-9 {
		t.Fatalf("end2 = %v, want 2", end2)
	}
}

func TestReserveAfterIdleGap(t *testing.T) {
	l := NewLink("l", 1000, 0)
	l.Reserve(0, 125e6)
	start, _ := l.Reserve(10, 125e6)
	if start != 10 {
		t.Fatalf("start after gap = %v, want 10", start)
	}
}

func TestReserveZeroBytes(t *testing.T) {
	l := NewLink("l", 1000, 0.002)
	start, end := l.Reserve(1, 0)
	if start != 1 || math.Abs(float64(end)-1.002) > 1e-9 {
		t.Fatalf("zero-byte reserve = [%v,%v]", start, end)
	}
}

func TestConstructorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewLink("bad", 0, 0) },
		func() { NewLink("bad", -1, 0) },
		func() { NewLink("bad", 10, -0.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid link accepted")
				}
			}()
			fn()
		}()
	}
}

func TestNegativeSizePanics(t *testing.T) {
	l := NewLink("l", 10, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("negative size accepted")
		}
	}()
	l.Reserve(0, -1)
}

// Property: transfers never overlap and preserve FIFO order.
func TestQuickNoOverlap(t *testing.T) {
	f := func(raw []uint16) bool {
		l := NewLink("l", 100, 0.001)
		now := simtime.Time(0)
		var prevEnd simtime.Time
		for _, r := range raw {
			now += simtime.Time(float64(r%100) / 1000)
			start, end := l.Reserve(now, int64(r)*1000)
			if start < now || start < prevEnd || end < start {
				return false
			}
			prevEnd = end
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkReserve(b *testing.B) {
	l := NewLink("l", 1000, 0.0001)
	for i := 0; i < b.N; i++ {
		l.Reserve(simtime.Time(i), 1e6)
	}
}

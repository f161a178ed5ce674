package telemetry

import (
	"math"
	"sort"
	"sync"
	"testing"

	"eevfs/internal/rng"
)

// Tests of windowed snapshots: what a histogram saw between two of its
// snapshots, HistogramSnapshot.Sub — the live load reporter's window.

// bucketFor returns the snapshot bucket bounds around v: the largest
// bound <= v (0 below the first) and the smallest bound >= v.
func bucketFor(bounds []float64, v float64) (lo, hi float64) {
	lo = 0
	for _, b := range bounds {
		if b >= v {
			return lo, b
		}
		lo = b
	}
	return lo, math.Inf(1)
}

// TestWindowedQuantilesVsSortedReference: the interpolated quantiles of a
// window land in the same bucket as the exact quantile of a sorted copy of
// the observations it covers — the bucket resolution is the histogram's
// precision contract — and what came before the window is not in it.
func TestWindowedQuantilesVsSortedReference(t *testing.T) {
	src := rng.New(7)
	h := newHistogram(DefBuckets)
	for i := 0; i < 5000; i++ {
		h.Observe(30) // before the window
	}
	start := h.Snapshot()
	var all []float64
	// Log-uniform latencies over 200µs..2s, across 3 ticks.
	for tick := 0; tick < 3; tick++ {
		for i := 0; i < 20000; i++ {
			v := 0.0002 * math.Pow(10, 4*src.Float64())
			h.Observe(v)
			all = append(all, v)
		}
	}
	sort.Float64s(all)
	win := h.Snapshot().Sub(start)
	if win.Count != int64(len(all)) {
		t.Fatalf("window holds %d observations, want %d", win.Count, len(all))
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := all[int(q*float64(len(all)-1))]
		lo, hi := bucketFor(DefBuckets, exact)
		if got := win.Quantile(q); got < lo || got > hi {
			t.Errorf("q=%g: interpolated %g outside exact value's bucket [%g, %g] (exact %g)", q, got, lo, hi, exact)
		}
	}
	if win.P50 != win.Quantile(0.5) || win.P99 != win.Quantile(0.99) || win.P999 != win.Quantile(0.999) {
		t.Errorf("precomputed quantiles %g/%g/%g are not the window's", win.P50, win.P99, win.P999)
	}
	if sum := sumOf(all); math.Abs(win.Sum-sum) > 1e-6*sum {
		t.Errorf("window sum %g, want %g", win.Sum, sum)
	}
}

func sumOf(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// TestWindowedAgesOut: observations from before a window's start vanish
// from it — the property that keeps a live p99 honest after the workload
// changes — overflow included.
func TestWindowedAgesOut(t *testing.T) {
	h := newHistogram(DefBuckets)
	var zero HistogramSnapshot
	for i := 0; i < 1000; i++ {
		h.Observe(100) // slow epoch, past the last bound
	}
	if p99 := h.Snapshot().Sub(zero).P99; p99 < 30 {
		t.Fatalf("p99 %g does not reflect the slow epoch", p99)
	}
	start := h.Snapshot()
	for i := 0; i < 3000; i++ {
		h.Observe(0.001)
	}
	win := h.Snapshot().Sub(start)
	if win.Count != 3000 || win.Overflow != 0 {
		t.Fatalf("stale observations survived: count %d, overflow %d; want 3000 and 0", win.Count, win.Overflow)
	}
	if win.P99 > 0.01 {
		t.Fatalf("p99 %g still polluted by the slow epoch", win.P99)
	}
}

// TestWindowedConcurrentObserve: observers racing the snapshots lose
// nothing — an observation lands before a snapshot or after it — so the
// window from a snapshot taken mid-race to one taken once they are done
// holds exactly what the first had not seen.
func TestWindowedConcurrentObserve(t *testing.T) {
	h := newHistogram(DefBuckets)
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				h.Observe(0.005)
			}
		}()
	}
	var mid HistogramSnapshot
	for i := 0; i < 50; i++ {
		mid = h.Snapshot()
	}
	wg.Wait()
	win := h.Snapshot().Sub(mid)
	if seen := mid.Buckets[5].N; win.Buckets[5].N != workers*perWorker-seen {
		t.Fatalf("window counts %d in the 5ms bucket; %d were made and the mid-race snapshot saw %d",
			win.Buckets[5].N, workers*perWorker, seen)
	}
}

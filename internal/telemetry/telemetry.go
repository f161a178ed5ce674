// Package telemetry is the unified observability substrate for EEVFS:
// named counters, gauges, and fixed-bucket latency histograms behind a
// Registry with cheap atomic updates, plus a structured event Journal for
// the discrete-event simulator and a Chrome trace-event exporter.
//
// Every handle type is nil-safe: methods on a nil *Counter, *Gauge, or
// *Histogram are no-ops, and a nil *Registry hands out nil handles. Code
// therefore instruments unconditionally and pays only a nil check when
// telemetry is disabled — the no-op mode the hot paths (simulator event
// loop, protocol round trips) rely on.
package telemetry

import (
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64. The zero value is ready to
// use; a nil pointer is a no-op.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (n must be >= 0 for the value to stay monotonic; this is not
// enforced).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can move in both directions. The zero value is
// ready to use; a nil pointer is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta (CAS loop; contended gauges should prefer Set).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Bucket i counts
// observations v <= bounds[i] (and > bounds[i-1]); values above the last
// bound land in the overflow bucket. A nil pointer is a no-op.
type Histogram struct {
	bounds []float64 // sorted, strictly increasing upper bounds
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// DefBuckets is the default latency bucket layout (seconds): 100 µs to
// 60 s in a 1-2.5-5 progression, matching both the protocol round-trip
// range and the simulator's modeled disk latencies.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

func newHistogram(bounds []float64) *Histogram {
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	sort.Float64s(bs)
	return &Histogram{
		bounds: bs,
		counts: make([]atomic.Int64, len(bs)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// sort.SearchFloat64s returns the first i with bounds[i] >= v, which
	// is exactly the "v <= bound" bucket; len(bounds) is the overflow.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// BucketCount is one histogram bucket in a snapshot: N observations with
// value <= Le (and greater than the previous bucket's Le).
type BucketCount struct {
	Le float64 `json:"le"`
	N  int64   `json:"n"`
}

// HistogramSnapshot is a frozen view of a Histogram.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	// Buckets holds the finite-bound buckets; Overflow counts
	// observations above the last bound.
	Buckets  []BucketCount `json:"buckets"`
	Overflow int64         `json:"overflow"`
	// P50/P99/P999 are bucket-interpolated quantiles, precomputed so
	// JSON and Prometheus consumers get tail latency without redoing
	// the interpolation.
	P50  float64 `json:"p50"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
}

// Mean returns the mean observation (0 with no observations).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Sub is what s, a snapshot of a histogram, holds beyond old, an earlier
// snapshot of the same one (or the zero snapshot): the observations made
// between the two, with their quantiles recomputed.
func (s HistogramSnapshot) Sub(old HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{Count: s.Count - old.Count, Sum: s.Sum - old.Sum, Overflow: s.Overflow - old.Overflow,
		Buckets: slices.Clone(s.Buckets)}
	for i := range old.Buckets {
		out.Buckets[i].N -= old.Buckets[i].N
	}
	out.P50, out.P99, out.P999 = out.Quantile(0.5), out.Quantile(0.99), out.Quantile(0.999)
	return out
}

// Quantile estimates the q-th quantile (0 <= q <= 1) by linear
// interpolation within the containing bucket (the first bucket
// interpolates from 0, overflow clamps to the last bound).
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	target := q * float64(s.Count)
	var cum int64
	lo := 0.0
	for _, b := range s.Buckets {
		next := cum + b.N
		if float64(next) >= target {
			if b.N == 0 {
				return b.Le
			}
			frac := (target - float64(cum)) / float64(b.N)
			return lo + frac*(b.Le-lo)
		}
		cum = next
		lo = b.Le
	}
	return s.Buckets[len(s.Buckets)-1].Le
}

// Snapshot freezes the histogram as it stands.
func (h *Histogram) Snapshot() HistogramSnapshot {
	out := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     math.Float64frombits(h.sum.Load()),
		Buckets: make([]BucketCount, len(h.bounds)),
	}
	for i, le := range h.bounds {
		out.Buckets[i] = BucketCount{Le: le, N: h.counts[i].Load()}
	}
	out.Overflow = h.counts[len(h.bounds)].Load()
	out.P50 = out.Quantile(0.5)
	out.P99 = out.Quantile(0.99)
	out.P999 = out.Quantile(0.999)
	return out
}

// Snapshot is a frozen, JSON-marshalable view of a Registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Registry is a named collection of metrics. Handle lookup takes a lock;
// callers on hot paths resolve handles once and update through them
// lock-free. A nil *Registry hands out nil (no-op) handles.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (nil bounds = DefBuckets). Later calls
// return the existing histogram regardless of bounds.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DefBuckets
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Snapshot captures every metric's current value. Safe to call
// concurrently with updates; each value is read atomically (the snapshot
// as a whole is not a single instant, which is fine for monitoring).
// A nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	out := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		out.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		out.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		out.Histograms[name] = h.Snapshot()
	}
	return out
}

// CounterNames returns the registered counter names, sorted (snapshot
// rendering and the stats RPC want a deterministic order).
func (r *Registry) CounterNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters))
	for name := range r.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

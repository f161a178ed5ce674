// Energy attribution: the ledger that joins trace spans against
// disk.Observer transitions. Every dwell a disk closes while serving a
// request (active service, spin-up) is attributed to the trace id the
// node recorded as the dwell's cause; dwells with no cause (idle,
// standby, timer-driven spin-downs) land in the background bucket. The
// sum over all buckets therefore tracks the disks' own integrated
// energy — the same conservation property the simulation oracles check.
package telemetry

import (
	"fmt"
	"sync"
)

// EnergySnapshot is a frozen, JSON-marshalable view of an EnergyLedger.
// Trace keys are hex-encoded trace ids.
type EnergySnapshot struct {
	TotalJ        float64            `json:"total_j"`
	BackgroundJ   float64            `json:"background_j"`
	PerArm        map[string]float64 `json:"per_arm"`
	PerFile       map[string]float64 `json:"per_file,omitempty"`
	PerTrace      map[string]float64 `json:"per_trace,omitempty"`
	EvictedTraces uint64             `json:"evicted_traces,omitempty"`
	EvictedFiles  uint64             `json:"evicted_files,omitempty"`
}

// EnergyLedger accumulates joules per request (trace id), per file, and
// per policy arm ("buffer" vs "data" disk class, split by power state).
// The per-trace and per-file maps are bounded FIFO rings so a long-lived
// daemon cannot grow them without bound; arm totals and the grand total
// are never evicted. Nil is a no-op.
type EnergyLedger struct {
	mu sync.Mutex

	traces ring[uint64]
	files  ring[string]

	arms        map[string]float64
	backgroundJ float64
	totalJ      float64
}

// ring is a map of running sums bounded to cap keys: a new key past the
// cap evicts the oldest one (FIFO) and counts the eviction.
type ring[K comparable] struct {
	sums    map[K]float64
	order   []K
	next    int
	cap     int
	evicted uint64
}

func newRing[K comparable](n int) ring[K] {
	return ring[K]{sums: make(map[K]float64), cap: n}
}

// add credits v to k, first evicting the oldest key if k is new and the
// ring is full.
func (r *ring[K]) add(k K, v float64) {
	if _, ok := r.sums[k]; !ok {
		if len(r.order) < r.cap {
			r.order = append(r.order, k)
		} else {
			delete(r.sums, r.order[r.next])
			r.order[r.next] = k
			r.evicted++
		}
		r.next = (r.next + 1) % r.cap
	}
	r.sums[k] += v
}

// NewEnergyLedger builds a ledger keeping at most capEntries per-trace
// and per-file buckets each (<=0 means the default, 4096).
func NewEnergyLedger(capEntries int) *EnergyLedger {
	if capEntries <= 0 {
		capEntries = 4096
	}
	return &EnergyLedger{
		traces: newRing[uint64](capEntries),
		files:  newRing[string](capEntries),
		arms:   make(map[string]float64),
	}
}

// Attribute credits joules to one dwell's cause: the given trace (0 =
// background), file (empty = none), and policy arm.
func (l *EnergyLedger) Attribute(traceID uint64, file, arm string, joules float64) {
	if l == nil || joules == 0 {
		return
	}
	l.mu.Lock()
	l.totalJ += joules
	if arm != "" {
		l.arms[arm] += joules
	}
	if traceID == 0 {
		l.backgroundJ += joules
	} else {
		l.traces.add(traceID, joules)
	}
	if file != "" {
		l.files.add(file, joules)
	}
	l.mu.Unlock()
}

// TraceJ returns the joules attributed to one trace so far (0 when
// unknown or evicted).
func (l *EnergyLedger) TraceJ(traceID uint64) float64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.traces.sums[traceID]
}

// TotalJ returns the grand total attributed so far.
func (l *EnergyLedger) TotalJ() float64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.totalJ
}

// Snapshot returns a frozen copy of every bucket.
func (l *EnergyLedger) Snapshot() EnergySnapshot {
	out := EnergySnapshot{
		PerArm:   map[string]float64{},
		PerFile:  map[string]float64{},
		PerTrace: map[string]float64{},
	}
	if l == nil {
		return out
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out.TotalJ = l.totalJ
	out.BackgroundJ = l.backgroundJ
	out.EvictedTraces = l.traces.evicted
	out.EvictedFiles = l.files.evicted
	for k, v := range l.arms {
		out.PerArm[k] = v
	}
	for k, v := range l.files.sums {
		out.PerFile[k] = v
	}
	for k, v := range l.traces.sums {
		out.PerTrace[fmt.Sprintf("%016x", k)] = v
	}
	return out
}

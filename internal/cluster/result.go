package cluster

import (
	"fmt"
	"math"

	"eevfs/internal/disk"
	"eevfs/internal/metrics"
)

// Result is everything one simulated run measures.
type Result struct {
	// MakespanSec is the virtual time from t=0 (start of the prefetch
	// phase, if any) to the completion of the last response or flush.
	MakespanSec float64

	// PrefetchEndSec is when the cluster-wide prefetch phase finished
	// (0 without prefetching). Trace arrival times are offset by this.
	PrefetchEndSec float64

	// TotalEnergyJ = BaseEnergyJ + DiskEnergyJ, the paper's "Energy
	// Joules" axis (whole storage nodes over the whole run).
	TotalEnergyJ float64
	// BaseEnergyJ is the constant node draw integrated over the makespan.
	BaseEnergyJ float64
	// DiskEnergyJ is the sum of all per-disk energies.
	DiskEnergyJ float64

	// Transitions is the paper's Fig. 4 metric: total spin-downs plus
	// spin-ups across all disks, including those spent on the final
	// write-buffer flush.
	Transitions int
	SpinUps     int
	SpinDowns   int

	// Response summarizes client-observed response times (seconds).
	Response metrics.Summary
	// ReadResponse and WriteResponse split the summary by operation.
	ReadResponse  metrics.Summary
	WriteResponse metrics.Summary

	// BufferHits counts reads served by buffer disks; BufferMisses reads
	// that had to touch a data disk.
	BufferHits   int64
	BufferMisses int64
	// BufferedWrites counts writes absorbed by the buffer disks'
	// write-buffer area; DirectWrites went straight to a data disk.
	BufferedWrites int64
	DirectWrites   int64
	// FlushedBytes is write-buffer data flushed to data disks.
	FlushedBytes int64

	// PrefetchedFiles is the number of files copied into buffer disks.
	PrefetchedFiles int
	// PrefetchEnergyJ is disk energy spent during the prefetch phase.
	PrefetchEnergyJ float64

	// AdaptiveReprefetches counts churn-triggered popularity recomputes
	// performed by the adaptive arm (0 on every other arm).
	AdaptiveReprefetches int
	// AdaptiveBudgetVetoes counts spin-downs the adaptive arm wanted but
	// the per-window transition budget refused — the thrash the hard cap
	// absorbed.
	AdaptiveBudgetVetoes int

	// Requests is the number of trace records replayed.
	Requests int

	// EventQueueMax is the event engine's queue high-water mark: the
	// most work in flight at once, independent of trace length
	// (DESIGN.md §7).
	EventQueueMax int

	// PerDisk carries each disk's final accounting ("node<i>/data<j>" and
	// "node<i>/buffer" names).
	PerDisk []disk.Stats
}

// EnergySavingsVs returns the paper's "energy efficiency gain" of this
// run against a baseline run, in percent.
func (r Result) EnergySavingsVs(baseline Result) float64 {
	return metrics.SavingsPercent(baseline.TotalEnergyJ, r.TotalEnergyJ)
}

// ResponsePenaltyVs returns the percent increase of mean response time
// against a baseline run.
func (r Result) ResponsePenaltyVs(baseline Result) float64 {
	return metrics.PercentChange(baseline.Response.Mean, r.Response.Mean)
}

// HitRatio returns the buffer-disk hit ratio over reads (0 with no reads).
func (r Result) HitRatio() float64 {
	total := r.BufferHits + r.BufferMisses
	if total == 0 {
		return 0
	}
	return float64(r.BufferHits) / float64(total)
}

// String renders the headline numbers.
func (r Result) String() string {
	return fmt.Sprintf(
		"makespan=%.1fs energy=%.0fJ (base=%.0f disk=%.0f) transitions=%d hit=%.1f%% resp{%s}",
		r.MakespanSec, r.TotalEnergyJ, r.BaseEnergyJ, r.DiskEnergyJ,
		r.Transitions, 100*r.HitRatio(), r.Response)
}

// WorstWearYears extrapolates each disk's observed sleep-cycle rate over
// the run to the time it would take to exhaust a rated start/stop budget,
// and returns the worst (shortest) figure — the paper's reliability
// concern about excessive transitions (Section VI-B), quantified.
func (r Result) WorstWearYears(ratedCycles int) float64 {
	worst := math.Inf(1)
	for _, st := range r.PerDisk {
		if y := st.YearsToWearOut(r.MakespanSec, ratedCycles); y < worst {
			worst = y
		}
	}
	return worst
}

// Package prefetch implements the centerpiece of EEVFS (Sections III-C and
// IV-B of the paper): choosing which popular files to copy into a buffer
// disk, predicting the idle windows that prefetching opens up on the data
// disks, and estimating whether sleeping through those windows saves
// energy (the PRE-BUD energy prediction model [12]).
package prefetch

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"eevfs/internal/disk"
	"eevfs/internal/trace"
)

// Select returns the ids of the k most popular files, in descending
// popularity (ties broken by ascending id). If capacity > 0, files are
// taken greedily in popularity order while they fit in the remaining
// buffer-disk capacity; a file that does not fit is skipped (not a hard
// stop), matching a greedy knapsack on popularity.
func Select(counts []int, sizes []int64, k int, capacity int64) ([]int, error) {
	return SelectRanked(trace.RankByCount(counts), counts, sizes, k, capacity)
}

// SelectRanked is Select for a caller that has already ranked counts:
// ranks must be trace.RankByCount(counts).
func SelectRanked(ranks, counts []int, sizes []int64, k int, capacity int64) ([]int, error) {
	if len(counts) != len(sizes) {
		return nil, fmt.Errorf("prefetch: %d counts vs %d sizes", len(counts), len(sizes))
	}
	if k < 0 {
		return nil, fmt.Errorf("prefetch: negative k %d", k)
	}
	var picked []int
	var used int64
	for _, id := range ranks {
		if len(picked) >= k {
			break
		}
		if counts[id] == 0 {
			// Never prefetch files nobody asked for, even if k allows.
			break
		}
		if capacity > 0 && used+sizes[id] > capacity {
			continue
		}
		picked = append(picked, id)
		used += sizes[id]
	}
	return picked, nil
}

// SelectWindowed ranks files by their access counts over a sliding
// popularity window (the adaptive policy's churn-triggered re-ranking,
// in contrast to Select's whole-trace counts) and returns the ids worth
// fetching: windowed count at least minHits, in descending count order
// with ties broken by ascending id. window holds one file id per access
// and is sorted in place. max > 0 caps the result length.
func SelectWindowed(window []int, minHits, max int) []int {
	type tally struct{ id, count int }
	slices.Sort(window)
	var hot []tally
	for i := 0; i < len(window); {
		j := i + 1
		for j < len(window) && window[j] == window[i] {
			j++
		}
		if j-i >= minHits {
			hot = append(hot, tally{window[i], j - i})
		}
		i = j
	}
	slices.SortFunc(hot, func(a, b tally) int {
		if a.count != b.count {
			return cmp.Compare(b.count, a.count)
		}
		return cmp.Compare(a.id, b.id)
	})
	if max > 0 && len(hot) > max {
		hot = hot[:max]
	}
	ids := make([]int, len(hot))
	for i, h := range hot {
		ids[i] = h.id
	}
	return ids
}

// Set is a prefetch decision as a membership test.
type Set map[int]bool

// NewSet builds a Set from a slice of file ids.
func NewSet(ids []int) Set {
	s := make(Set, len(ids))
	for _, id := range ids {
		s[id] = true
	}
	return s
}

// Interval is a half-open busy period [Start, End) on one disk.
type Interval struct {
	Start, End float64
}

// Window is a predicted idle period [Start, End) on one disk.
type Window struct {
	Start, End float64
}

// Length returns the window duration.
func (w Window) Length() float64 { return w.End - w.Start }

// MergeBusy sorts and coalesces overlapping (or touching) busy intervals.
// It never writes to busy, and it returns busy itself when the list is
// already merged — sorted by start, each interval starting after the
// previous one ends — so merging a merged list costs one pass and no
// allocation.
func MergeBusy(busy []Interval) []Interval {
	if len(busy) == 0 {
		return nil
	}
	if merged(busy) {
		return busy
	}
	sorted := make([]Interval, len(busy))
	copy(sorted, busy)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Start != sorted[j].Start {
			return sorted[i].Start < sorted[j].Start
		}
		return sorted[i].End < sorted[j].End
	})
	out := sorted[:1]
	for _, iv := range sorted[1:] {
		last := &out[len(out)-1]
		if iv.Start <= last.End {
			if iv.End > last.End {
				last.End = iv.End
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// merged reports whether MergeBusy would return busy unchanged: every
// interval starts after both the start and the end of the one before it.
func merged(busy []Interval) bool {
	for i := 1; i < len(busy); i++ {
		if !(busy[i].Start > busy[i-1].Start && busy[i].Start > busy[i-1].End) {
			return false
		}
	}
	return true
}

// IdleWindows returns the idle gaps between merged busy intervals over
// [0, horizon). Busy time beyond the horizon is clipped.
func IdleWindows(busy []Interval, horizon float64) []Window {
	merged := MergeBusy(busy)
	windows := make([]Window, 0, len(merged)+1) // a gap before each interval, one after
	cursor := 0.0
	for _, iv := range merged {
		if iv.Start >= horizon {
			break
		}
		if iv.Start > cursor {
			windows = append(windows, Window{Start: cursor, End: iv.Start})
		}
		if iv.End > cursor {
			cursor = iv.End
		}
	}
	if cursor < horizon {
		windows = append(windows, Window{Start: cursor, End: horizon})
	}
	return windows
}

// PlanSleeps filters idle windows down to the ones worth sleeping through:
// length >= minGap. This is the hint-driven schedule of Section IV-C — the
// node "marks points in time when the data disks should be transitioned to
// the standby state". The paper compares the window against the disk idle
// threshold; callers that want guaranteed savings pass
// max(threshold, model.BreakEvenSec()).
func PlanSleeps(windows []Window, minGap float64) []Window {
	n := 0
	for _, w := range windows {
		if w.Length() >= minGap {
			n++
		}
	}
	plan := make([]Window, 0, n)
	for _, w := range windows {
		if w.Length() >= minGap {
			plan = append(plan, w)
		}
	}
	return plan
}

// EstimateEnergy predicts one disk's energy over [0, horizon) given its
// busy intervals and a sleep plan. Outside busy intervals and sleep
// windows the disk idles. Sleep windows pay the spin-down and spin-up
// transitions inside the window (wake is on demand at the window end, so
// the spin-up delay lands at the end of the window; the response-time cost
// of that is modeled by the cluster simulator, not here).
//
// The prediction deliberately ignores queueing — it answers the planning
// question ("is there an opportunity to save energy?", Section IV-C), not
// the measurement question.
func EstimateEnergy(busy []Interval, horizon float64, m disk.Model, plan []Window) float64 {
	merged := MergeBusy(busy)
	activeTime := 0.0
	for _, iv := range merged {
		s, e := iv.Start, iv.End
		if s < 0 {
			s = 0
		}
		if e > horizon {
			e = horizon
		}
		if e > s {
			activeTime += e - s
		}
	}

	sleepTime := 0.0
	transitions := 0
	for _, w := range plan {
		cycle := m.SpinDownSec + m.SpinUpSec
		if w.Length() < cycle {
			continue // physically impossible to complete the cycle
		}
		sleepTime += w.Length()
		transitions++
	}

	idleTime := horizon - activeTime - sleepTime
	if idleTime < 0 {
		idleTime = 0
	}

	energy := activeTime*m.PActive + idleTime*m.PIdle
	for i := 0; i < transitions; i++ {
		energy += m.SpinDownJ + m.SpinUpJ
	}
	// Within each sleep window, the transition latencies replace standby
	// dwell.
	standby := sleepTime - float64(transitions)*(m.SpinDownSec+m.SpinUpSec)
	if standby < 0 {
		standby = 0
	}
	energy += standby * m.PStandby
	// Subtract the standby+transition span double-counted as... nothing:
	// sleepTime was excluded from idleTime already, so the accounting is
	// complete.
	return energy
}

// PredictSavings compares predicted disk energy with and without the sleep
// plan. A non-positive result means "no opportunity to save energy" and
// the node should leave the disk spinning (Section IV-C).
func PredictSavings(busy []Interval, horizon float64, m disk.Model, plan []Window) float64 {
	baseline := EstimateEnergy(busy, horizon, m, nil)
	withPlan := EstimateEnergy(busy, horizon, m, plan)
	return baseline - withPlan
}

// BusyFromAccesses converts predicted access arrival times on one disk
// into busy intervals, assuming each access occupies the disk for the
// given service time. Accesses need not be sorted.
func BusyFromAccesses(times []float64, service float64) []Interval {
	busy := make([]Interval, 0, len(times))
	for _, t := range times {
		busy = append(busy, Interval{Start: t, End: t + service})
	}
	return busy
}

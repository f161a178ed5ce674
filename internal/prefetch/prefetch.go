// Package prefetch chooses which popular files EEVFS copies into a buffer
// disk (Sections III-C and IV-B of the paper): top-K by whole-trace
// popularity under a capacity limit, or the hot files of a sliding
// window. Which of the idle windows this opens up on the data disks are
// worth sleeping through, those at least the disk's break-even time long,
// is the hinted sleep rule's question, in package cluster.
package prefetch

import (
	"cmp"
	"fmt"
	"slices"

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

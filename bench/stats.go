package main

import (
	"math"
	"sort"
)

// percentile returns the exact q-quantile (nearest rank) of sorted
// samples; 0 for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// series is one metric's per-segment values. Every timing the benchmark
// reports is the median of such a series, printed with its min–max.
type series []float64

func (s series) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

func (s series) median() float64 {
	v := s.sorted()
	switch n := len(v); {
	case n == 0:
		return 0
	case n%2 == 1:
		return v[n/2]
	default:
		return (v[n/2-1] + v[n/2]) / 2
	}
}

func (s series) minMax() (lo, hi float64) {
	v := s.sorted()
	if len(v) == 0 {
		return 0, 0
	}
	return v[0], v[len(v)-1]
}

func (s series) max() float64 {
	_, hi := s.minMax()
	return hi
}

// each maps the segments of one mode to a series.
func each(segs []segResult, f func(segResult) float64) series {
	out := make(series, len(segs))
	for i, s := range segs {
		out[i] = f(s)
	}
	return out
}

// pooledSorted merges every segment's latency samples of the given
// classes (all classes when none is named) into one sorted slice.
func pooledSorted(segs []segResult, classes ...opKind) []float64 {
	var out []float64
	for _, s := range segs {
		out = append(out, s.samples(classes...)...)
	}
	sort.Float64s(out)
	return out
}

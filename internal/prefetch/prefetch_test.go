package prefetch

import (
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"eevfs/internal/disk"
)

func testModel() disk.Model {
	return disk.Model{
		Name: "test", BandwidthMBps: 50, AvgSeekSec: 0.008, AvgRotateSec: 0.004,
		CapacityGB: 80, PActive: 10, PIdle: 6, PStandby: 1,
		SpinUpSec: 2, SpinUpJ: 30, SpinDownSec: 1, SpinDownJ: 8,
	}
}

func TestSelectTopK(t *testing.T) {
	counts := []int{5, 9, 1, 9, 0}
	sizes := []int64{10, 10, 10, 10, 10}
	got, err := Select(counts, sizes, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 3, 0} // 9,9 (tie by id), then 5
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Select = %v, want %v", got, want)
	}
}

func TestSelectSkipsZeroCountFiles(t *testing.T) {
	counts := []int{0, 3, 0}
	sizes := []int64{1, 1, 1}
	got, err := Select(counts, sizes, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("Select = %v, want [1] (never prefetch unaccessed files)", got)
	}
}

func TestSelectCapacityGreedy(t *testing.T) {
	counts := []int{10, 9, 8, 7}
	sizes := []int64{60, 50, 30, 20}
	// Capacity 100: take file 0 (60), skip file 1 (would exceed), take
	// file 2 (30), skip file 3? 60+30+20=110 > 100, so skip 3 too... no:
	// after 0 and 2 used=90, file 3 is 20 -> 110 > 100, skipped.
	got, err := Select(counts, sizes, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{0, 2}) {
		t.Errorf("Select = %v, want [0 2]", got)
	}
}

func TestSelectErrors(t *testing.T) {
	if _, err := Select([]int{1}, []int64{1, 2}, 1, 0); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Select([]int{1}, []int64{1}, -1, 0); err == nil {
		t.Error("negative k accepted")
	}
}

func TestSelectKZero(t *testing.T) {
	got, err := Select([]int{5, 5}, []int64{1, 1}, 0, 0)
	if err != nil || len(got) != 0 {
		t.Errorf("Select k=0 = %v, %v", got, err)
	}
}

func TestNewSet(t *testing.T) {
	s := NewSet([]int{1, 3})
	if !s[1] || !s[3] || s[2] {
		t.Errorf("Set = %v", s)
	}
}

func TestMergeBusy(t *testing.T) {
	busy := []Interval{{5, 7}, {1, 3}, {2, 4}, {10, 11}}
	got := MergeBusy(busy)
	want := []Interval{{1, 4}, {5, 7}, {10, 11}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("MergeBusy = %v, want %v", got, want)
	}
	if MergeBusy(nil) != nil {
		t.Error("MergeBusy(nil) != nil")
	}
}

func TestMergeBusyTouchingIntervals(t *testing.T) {
	got := MergeBusy([]Interval{{1, 2}, {2, 3}})
	if !reflect.DeepEqual(got, []Interval{{1, 3}}) {
		t.Errorf("touching intervals not merged: %v", got)
	}
}

func TestMergeBusyDoesNotMutateInput(t *testing.T) {
	in := []Interval{{5, 6}, {1, 2}}
	MergeBusy(in)
	if in[0] != (Interval{5, 6}) {
		t.Error("MergeBusy mutated its input")
	}
}

// mergeBusyRef is MergeBusy without its already-merged shortcut: copy,
// sort, coalesce.
func mergeBusyRef(busy []Interval) []Interval {
	if len(busy) == 0 {
		return nil
	}
	sorted := append([]Interval(nil), busy...)
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
			last.End = math.Max(last.End, iv.End)
			continue
		}
		out = append(out, iv)
	}
	return out
}

// Property: MergeBusy equals the copy-sort-coalesce reference on random
// lists (small integer bounds, so ties, touching and reversed intervals
// are common) and, when no interval is reversed, on the reference's own
// merged output, which it must hand back as is.
func TestQuickMergeBusyMatchesReference(t *testing.T) {
	f := func(raw []uint8, shift uint8) bool {
		busy := make([]Interval, len(raw)/2)
		reversed := false
		for i := range busy {
			busy[i] = Interval{float64(raw[2*i] % 40), float64(raw[2*i+1]%40) + float64(shift%4)}
			reversed = reversed || busy[i].End < busy[i].Start
		}
		in := append([]Interval(nil), busy...)
		want := mergeBusyRef(busy)
		if got := MergeBusy(busy); !reflect.DeepEqual(got, want) || !slices.Equal(busy, in) {
			return false
		}
		if reversed || len(want) == 0 {
			return true
		}
		again := MergeBusy(want)
		return reflect.DeepEqual(again, want) && &again[0] == &want[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeBusyMergedListAllocatesNothing(t *testing.T) {
	busy := make([]Interval, 1000)
	for i := range busy {
		busy[i] = Interval{float64(2 * i), float64(2*i) + 1.5}
	}
	if allocs := testing.AllocsPerRun(100, func() { MergeBusy(busy) }); allocs != 0 {
		t.Errorf("MergeBusy on a merged list: %.0f allocations, want 0", allocs)
	}
}

func TestIdleWindows(t *testing.T) {
	busy := []Interval{{2, 3}, {6, 8}}
	got := IdleWindows(busy, 10)
	want := []Window{{0, 2}, {3, 6}, {8, 10}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("IdleWindows = %v, want %v", got, want)
	}
}

func TestIdleWindowsNoBusy(t *testing.T) {
	got := IdleWindows(nil, 5)
	if !reflect.DeepEqual(got, []Window{{0, 5}}) {
		t.Errorf("IdleWindows(empty) = %v", got)
	}
}

func TestIdleWindowsBusyPastHorizon(t *testing.T) {
	busy := []Interval{{1, 20}}
	got := IdleWindows(busy, 10)
	want := []Window{{0, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("IdleWindows = %v, want %v", got, want)
	}
}

func TestIdleWindowsBusyStartsAtZero(t *testing.T) {
	busy := []Interval{{0, 2}}
	got := IdleWindows(busy, 10)
	want := []Window{{2, 10}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("IdleWindows = %v, want %v", got, want)
	}
}

func TestPlanSleepsFiltersShortGaps(t *testing.T) {
	windows := []Window{{0, 3}, {5, 20}, {25, 26}}
	got := PlanSleeps(windows, 5)
	want := []Window{{5, 20}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PlanSleeps = %v, want %v", got, want)
	}
}

func TestEstimateEnergyIdleOnly(t *testing.T) {
	m := testModel()
	got := EstimateEnergy(nil, 100, m, nil)
	if math.Abs(got-600) > 1e-9 { // 100 s * 6 W idle
		t.Errorf("idle-only energy = %g, want 600", got)
	}
}

func TestEstimateEnergyBusyPlusIdle(t *testing.T) {
	m := testModel()
	busy := []Interval{{10, 20}} // 10 s active
	got := EstimateEnergy(busy, 100, m, nil)
	want := 10*10.0 + 90*6.0
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("energy = %g, want %g", got, want)
	}
}

func TestEstimateEnergySleepWindow(t *testing.T) {
	m := testModel()
	// One 50 s sleep window: 8 + 30 J transitions + 47 s standby at 1 W,
	// remaining 50 s idle at 6 W.
	plan := []Window{{0, 50}}
	got := EstimateEnergy(nil, 100, m, plan)
	want := 8.0 + 30.0 + 47*1.0 + 50*6.0
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("energy = %g, want %g", got, want)
	}
}

func TestEstimateEnergyIgnoresImpossiblyShortWindows(t *testing.T) {
	m := testModel()
	plan := []Window{{0, 2}} // shorter than spin-down + spin-up = 3 s
	got := EstimateEnergy(nil, 100, m, plan)
	if math.Abs(got-600) > 1e-9 {
		t.Errorf("short window altered energy: %g", got)
	}
}

func TestPredictSavingsPositiveForLongGaps(t *testing.T) {
	m := testModel()
	busy := []Interval{{0, 1}, {200, 201}}
	windows := IdleWindows(busy, 300)
	plan := PlanSleeps(windows, m.BreakEvenSec())
	if s := PredictSavings(busy, 300, m, plan); s <= 0 {
		t.Errorf("savings = %g, want > 0 for a ~200 s gap", s)
	}
}

func TestPredictSavingsNegativeForShortGapSleeps(t *testing.T) {
	m := testModel()
	// Gaps of 4 s each: below break-even (7 s). Force-sleeping them must
	// predict negative savings, which is exactly the "no opportunity"
	// signal of Section IV-C.
	var busy []Interval
	for t0 := 0.0; t0 < 100; t0 += 5 {
		busy = append(busy, Interval{t0, t0 + 1})
	}
	windows := IdleWindows(busy, 100)
	if s := PredictSavings(busy, 100, m, windows); s >= 0 {
		t.Errorf("savings = %g, want < 0 when sleeping sub-break-even gaps", s)
	}
}

func TestBusyFromAccesses(t *testing.T) {
	got := BusyFromAccesses([]float64{1, 5}, 0.5)
	want := []Interval{{1, 1.5}, {5, 5.5}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BusyFromAccesses = %v, want %v", got, want)
	}
}

// Property: idle windows and merged busy intervals exactly tile the
// horizon — no overlap, no gap.
func TestQuickWindowsTileHorizon(t *testing.T) {
	f := func(raw []uint16) bool {
		var busy []Interval
		for _, r := range raw {
			start := float64(r % 500)
			busy = append(busy, Interval{start, start + float64(r%7) + 0.5})
		}
		const horizon = 600.0
		merged := MergeBusy(busy)
		windows := IdleWindows(busy, horizon)

		total := 0.0
		for _, iv := range merged {
			s, e := iv.Start, math.Min(iv.End, horizon)
			if e > s {
				total += e - s
			}
		}
		for _, w := range windows {
			total += w.Length()
		}
		return math.Abs(total-horizon) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: sleeping only through windows >= break-even never predicts
// negative savings.
func TestQuickBreakEvenPlanNeverLoses(t *testing.T) {
	m := testModel()
	f := func(raw []uint16) bool {
		var busy []Interval
		for _, r := range raw {
			start := float64(r % 300)
			busy = append(busy, Interval{start, start + 0.5})
		}
		const horizon = 400.0
		windows := IdleWindows(busy, horizon)
		plan := PlanSleeps(windows, m.BreakEvenSec())
		return PredictSavings(busy, horizon, m, plan) >= -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Select returns at most k distinct in-range ids sorted by
// nonincreasing count.
func TestQuickSelectShape(t *testing.T) {
	f := func(raw []uint8, kRaw uint8) bool {
		counts := make([]int, len(raw))
		sizes := make([]int64, len(raw))
		for i, v := range raw {
			counts[i] = int(v)
			sizes[i] = 1
		}
		k := int(kRaw) % (len(raw) + 1)
		got, err := Select(counts, sizes, k, 0)
		if err != nil {
			return false
		}
		if len(got) > k {
			return false
		}
		seen := map[int]bool{}
		for i, id := range got {
			if id < 0 || id >= len(raw) || seen[id] || counts[id] == 0 {
				return false
			}
			seen[id] = true
			if i > 0 && counts[got[i-1]] < counts[id] {
				return false
			}
		}
		// got must be the top-|got| by count: no excluded file may have a
		// strictly higher count than the least-picked file.
		if len(got) == k && k > 0 {
			minPicked := counts[got[len(got)-1]]
			rest := make([]int, 0)
			for id, c := range counts {
				if !seen[id] {
					rest = append(rest, c)
				}
			}
			sort.Sort(sort.Reverse(sort.IntSlice(rest)))
			if len(rest) > 0 && rest[0] > minPicked {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSelectWindowedMatchesComparator pins SelectWindowed to the ranking
// it replaced — a count map, sorted by count descending then id
// ascending — on random windows over few ids, so counts repeat and tie.
func TestSelectWindowedMatchesComparator(t *testing.T) {
	reference := func(window []int, minHits, max int) []int {
		counts := map[int]int{}
		for _, id := range window {
			counts[id]++
		}
		ids := []int{}
		for id, c := range counts {
			if c >= minHits {
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(i, j int) bool {
			if counts[ids[i]] != counts[ids[j]] {
				return counts[ids[i]] > counts[ids[j]]
			}
			return ids[i] < ids[j]
		})
		if max > 0 && len(ids) > max {
			ids = ids[:max]
		}
		return ids
	}
	f := func(raw []uint8, minHits, max uint8) bool {
		window := make([]int, len(raw))
		for i, b := range raw {
			window[i] = int(b % 40)
		}
		want := reference(window, int(minHits%5), int(max%12))
		return slices.Equal(SelectWindowed(window, int(minHits%5), int(max%12)), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

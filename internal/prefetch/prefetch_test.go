package prefetch

import (
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

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

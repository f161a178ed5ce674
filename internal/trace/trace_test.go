package trace

import (
	"bytes"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"eevfs/internal/rng"
)

func sampleTrace() *Trace {
	return &Trace{
		FileSizes: []int64{100, 200, 300},
		Records: []Record{
			{Seq: 0, TimeS: 0, Op: Read, FileID: 0, Size: 100},
			{Seq: 1, TimeS: 0.7, Op: Read, FileID: 2, Size: 300},
			{Seq: 2, TimeS: 1.4, Op: Write, FileID: 1, Size: 200},
			{Seq: 3, TimeS: 2.1, Op: Read, FileID: 0, Size: 100},
		},
	}
}

func TestValidateAcceptsGoodTrace(t *testing.T) {
	if err := sampleTrace().Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

func TestValidateRejectsBadTraces(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Trace)
	}{
		{"bad seq", func(tr *Trace) { tr.Records[1].Seq = 7 }},
		{"time regression", func(tr *Trace) { tr.Records[2].TimeS = 0.1 }},
		{"file id out of range", func(tr *Trace) { tr.Records[0].FileID = 99 }},
		{"negative file id", func(tr *Trace) { tr.Records[0].FileID = -1 }},
		{"zero record size", func(tr *Trace) { tr.Records[0].Size = 0 }},
		{"zero file size", func(tr *Trace) { tr.FileSizes[1] = 0 }},
	}
	for _, tc := range cases {
		tr := sampleTrace()
		tc.mod(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: Validate accepted bad trace", tc.name)
		}
	}
}

func TestDuration(t *testing.T) {
	if got := sampleTrace().Duration(); got != 2.1 {
		t.Errorf("Duration = %g, want 2.1", got)
	}
	empty := &Trace{}
	if got := empty.Duration(); got != 0 {
		t.Errorf("empty Duration = %g, want 0", got)
	}
}

func TestCounts(t *testing.T) {
	got := sampleTrace().Counts()
	want := []int{2, 1, 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Counts = %v, want %v", got, want)
	}
}

func TestRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, tr)
	}
}

func TestRoundTripEmptyTrace(t *testing.T) {
	tr := &Trace{}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.NumFiles() != 0 || len(got.Records) != 0 {
		t.Fatalf("empty round trip produced %+v", got)
	}
}

func TestReadRejectsCorruptInputs(t *testing.T) {
	cases := map[string]string{
		"empty":             "",
		"bad header":        "not-a-trace\n",
		"missing files":     "eevfs-trace/1\n",
		"bad file count":    "eevfs-trace/1\nfiles x\n",
		"truncated sizes":   "eevfs-trace/1\nfiles 2\nsize 0 10\n",
		"size out of order": "eevfs-trace/1\nfiles 2\nsize 1 10\nsize 0 10\nrecords 0\n",
		"bad record count":  "eevfs-trace/1\nfiles 0\nrecords nope\n",
		"short record":      "eevfs-trace/1\nfiles 1\nsize 0 10\nrecords 1\n0 0 r\n",
		"bad op":            "eevfs-trace/1\nfiles 1\nsize 0 10\nrecords 1\n0 0 x 0 10\n",
		"bad numbers":       "eevfs-trace/1\nfiles 1\nsize 0 10\nrecords 1\nzero 0 r 0 10\n",
		"invalid semantics": "eevfs-trace/1\nfiles 1\nsize 0 10\nrecords 1\n0 0 r 5 10\n",
	}
	for name, in := range cases {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Read accepted corrupt input", name)
		}
	}
}

func TestOpString(t *testing.T) {
	if Op(0).String() != "read" || Op(1).String() != "write" {
		t.Error("op strings wrong")
	}
	if Op(9).String() != "Op(9)" {
		t.Errorf("unknown op string = %q", Op(9).String())
	}
}

func TestRankByCount(t *testing.T) {
	ranks := RankByCount([]int{2, 5, 5, 0, 1})
	want := []int{1, 2, 0, 4, 3} // ties broken by ascending id
	if !reflect.DeepEqual(ranks, want) {
		t.Errorf("RankByCount = %v, want %v", ranks, want)
	}
}

func TestRankByCountEmpty(t *testing.T) {
	if got := RankByCount(nil); len(got) != 0 {
		t.Errorf("RankByCount(nil) = %v", got)
	}
}

// TestRankByCountMatchesReferenceSort compares RankByCount with a stable
// comparison sort on random counts: mostly a few distinct values (many
// ties), sometimes negative, and sometimes spread wider than the counting
// sort's buckets allow, so both paths are checked.
func TestRankByCountMatchesReferenceSort(t *testing.T) {
	src := rng.New(1)
	for trial := 0; trial < 2000; trial++ {
		counts := make([]int, src.Intn(200))
		distinct := 1 + src.Intn(8)
		for i := range counts {
			counts[i] = src.Intn(distinct)
			switch trial % 4 {
			case 1:
				counts[i] -= distinct / 2
			case 2:
				counts[i] *= 1 + src.Intn(1000)
			case 3:
				if src.Intn(50) == 0 {
					counts[i] = math.MaxInt - src.Intn(3)
				}
			}
		}
		want := make([]int, len(counts))
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool { return counts[want[a]] > counts[want[b]] })
		if got := RankByCount(counts); !reflect.DeepEqual(got, want) {
			t.Fatalf("counts %v:\ngot  %v\nwant %v", counts, got, want)
		}
	}
}

// Property: RankByCount always returns a permutation of [0,n) with
// nonincreasing counts.
func TestQuickRankIsSortedPermutation(t *testing.T) {
	f := func(raw []uint8) bool {
		counts := make([]int, len(raw))
		for i, v := range raw {
			counts[i] = int(v)
		}
		ranks := RankByCount(counts)
		if len(ranks) != len(counts) {
			return false
		}
		seen := make([]bool, len(counts))
		for _, id := range ranks {
			if id < 0 || id >= len(counts) || seen[id] {
				return false
			}
			seen[id] = true
		}
		for i := 1; i < len(ranks); i++ {
			if counts[ranks[i]] > counts[ranks[i-1]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Write/Read round-trips arbitrary well-formed traces.
func TestQuickRoundTrip(t *testing.T) {
	f := func(sizes []uint16, recs []uint32) bool {
		if len(sizes) == 0 {
			return true
		}
		tr := &Trace{FileSizes: make([]int64, len(sizes))}
		for i, s := range sizes {
			tr.FileSizes[i] = int64(s) + 1
		}
		tm := 0.0
		for i, r := range recs {
			fid := int(r) % len(sizes)
			tm += float64(r%100) / 10
			tr.Records = append(tr.Records, Record{
				Seq: int64(i), TimeS: tm, Op: Op(r % 2),
				FileID: fid, Size: tr.FileSizes[fid],
			})
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			return false
		}
		got, err := Parse(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriteRead(b *testing.B) {
	tr := sampleTrace()
	for i := 0; i < 1000; i++ {
		tr.Records = append(tr.Records, Record{
			Seq: int64(len(tr.Records)), TimeS: float64(len(tr.Records)),
			Op: Read, FileID: 0, Size: 100,
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := Parse(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

package placement

import (
	"reflect"
	"testing"
	"testing/quick"

	"eevfs/internal/trace"
	"eevfs/internal/workload"
)

func identityRanks(n int) []int {
	r := make([]int, n)
	for i := range r {
		r[i] = i
	}
	return r
}

func TestRoundRobinBasic(t *testing.T) {
	// 6 files, 2 nodes, 2 disks. Popularity order = file id order.
	a, err := RoundRobin(identityRanks(6), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantNode := []int{0, 1, 0, 1, 0, 1}
	wantDisk := []int{0, 0, 1, 1, 0, 0}
	if !reflect.DeepEqual(a.Node, wantNode) {
		t.Errorf("Node = %v, want %v", a.Node, wantNode)
	}
	if !reflect.DeepEqual(a.Disk, wantDisk) {
		t.Errorf("Disk = %v, want %v", a.Disk, wantDisk)
	}
}

func TestRoundRobinPopularityOrder(t *testing.T) {
	// ranks[0]=file 5 is most popular -> node 0 disk 0.
	ranks := []int{5, 4, 3, 2, 1, 0}
	a, err := RoundRobin(ranks, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Node[5] != 0 || a.Node[4] != 1 || a.Node[3] != 2 || a.Node[2] != 0 {
		t.Errorf("popularity routing wrong: %v", a.Node)
	}
}

func TestRoundRobinRejectsBadShapes(t *testing.T) {
	if _, err := RoundRobin(identityRanks(3), 0, 1); err == nil {
		t.Error("0 nodes accepted")
	}
	if _, err := RoundRobin(identityRanks(3), 1, 0); err == nil {
		t.Error("0 disks accepted")
	}
}

func TestRoundRobinRejectsNonPermutation(t *testing.T) {
	for _, ranks := range [][]int{{0, 0, 1}, {0, 1, 5}, {-1, 0, 1}} {
		if _, err := RoundRobin(ranks, 2, 2); err == nil {
			t.Errorf("non-permutation %v accepted", ranks)
		}
	}
}

func TestValidate(t *testing.T) {
	a, _ := RoundRobin(identityRanks(10), 2, 3)
	if err := a.Validate(2, 3); err != nil {
		t.Fatalf("valid assignment rejected: %v", err)
	}
	if err := a.Validate(1, 3); err == nil {
		t.Error("node overflow not caught")
	}
	if err := a.Validate(2, 1); err == nil {
		t.Error("disk overflow not caught")
	}
	bad := Assignment{Node: []int{0}, Disk: []int{0, 0}}
	if err := bad.Validate(1, 1); err == nil {
		t.Error("length mismatch not caught")
	}
}

func TestLoadAndImbalance(t *testing.T) {
	a, _ := RoundRobin(identityRanks(4), 2, 2)
	counts := []int{10, 10, 10, 10}
	sizes := []int64{100, 100, 100, 100}
	ls, err := a.Load(counts, sizes, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ls.RequestsPerNode[0] != 20 || ls.RequestsPerNode[1] != 20 {
		t.Errorf("RequestsPerNode = %v", ls.RequestsPerNode)
	}
	if ls.BytesPerNode[0] != 2000 {
		t.Errorf("BytesPerNode = %v", ls.BytesPerNode)
	}
	if got := ls.Imbalance(); got != 1 {
		t.Errorf("Imbalance = %g, want 1 (perfect)", got)
	}
}

func TestLoadMismatchedInputs(t *testing.T) {
	a, _ := RoundRobin(identityRanks(4), 2, 2)
	if _, err := a.Load([]int{1}, []int64{1, 1, 1, 1}, 2, 2); err == nil {
		t.Error("short counts accepted")
	}
}

func TestImbalanceEmptyLoad(t *testing.T) {
	ls := LoadStats{RequestsPerNode: []int{0, 0}}
	if got := ls.Imbalance(); got != 0 {
		t.Errorf("empty Imbalance = %g, want 0", got)
	}
}

// TestPopularityBalancing reproduces the paper's design claim: placing
// files round-robin in popularity order balances the request load across
// nodes even under a heavily skewed workload.
func TestPopularityBalancing(t *testing.T) {
	cfg := workload.DefaultSynthetic()
	cfg.MU = 100
	cfg.NumRequests = 20000
	tr, err := workload.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := tr.Counts()
	ranks := trace.RankByCount(counts)
	a, err := RoundRobin(ranks, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := a.Load(counts, tr.FileSizes, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if imb := ls.Imbalance(); imb > 1.25 {
		t.Errorf("popularity round-robin imbalance %g, want <= 1.25", imb)
	}

	// Contrast: placing by raw file id (ignoring popularity) on the same
	// skewed workload is much worse, because Poisson(100) mass is
	// concentrated in a contiguous id range.
	naive, _ := RoundRobin(identityRanks(len(counts)), 8, 2)
	nls, _ := naive.Load(counts, tr.FileSizes, 8, 2)
	if nls.Imbalance() < ls.Imbalance() {
		t.Logf("note: naive imbalance %g vs popularity %g", nls.Imbalance(), ls.Imbalance())
	}
}

// Property: RoundRobin assigns every file exactly once, within range, and
// the per-node file counts differ by at most one.
func TestQuickRoundRobinBalanced(t *testing.T) {
	f := func(nRaw, nodesRaw, disksRaw uint8) bool {
		n := int(nRaw)%300 + 1
		nodes := int(nodesRaw)%12 + 1
		disks := int(disksRaw)%6 + 1
		a, err := RoundRobin(identityRanks(n), nodes, disks)
		if err != nil {
			return false
		}
		if a.Validate(nodes, disks) != nil {
			return false
		}
		perNode := make([]int, nodes)
		for _, nd := range a.Node {
			perNode[nd]++
		}
		min, max := n, 0
		for _, c := range perNode {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		return max-min <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRoundRobin(b *testing.B) {
	ranks := identityRanks(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RoundRobin(ranks, 8, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func TestConcentratePlacesPopularFilesFirst(t *testing.T) {
	// 8 files, 2 nodes x 2 disks: 2 files per disk, popularity order.
	ranks := []int{7, 6, 5, 4, 3, 2, 1, 0} // file 7 most popular
	a, err := Concentrate(ranks, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Most popular two files on (node0, disk0).
	if a.Node[7] != 0 || a.Disk[7] != 0 || a.Node[6] != 0 || a.Disk[6] != 0 {
		t.Errorf("top files not concentrated: node=%v disk=%v", a.Node, a.Disk)
	}
	// Least popular two on (node1, disk1).
	if a.Node[0] != 1 || a.Disk[0] != 1 {
		t.Errorf("cold files misplaced: node=%v disk=%v", a.Node, a.Disk)
	}
	if err := a.Validate(2, 2); err != nil {
		t.Fatal(err)
	}
}

func TestConcentrateUnevenCounts(t *testing.T) {
	// 5 files over 4 disks: ceil(5/4)=2 per disk; overflow clamps to the
	// last disk.
	a, err := Concentrate(identityRanks(5), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(2, 2); err != nil {
		t.Fatal(err)
	}
}

func TestConcentrateFewerFilesThanDisks(t *testing.T) {
	a, err := Concentrate(identityRanks(2), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(4, 4); err != nil {
		t.Fatal(err)
	}
	// Each file on its own disk (perDisk = 1).
	if a.Node[0] != 0 || a.Disk[0] != 0 || a.Node[1] != 0 || a.Disk[1] != 1 {
		t.Errorf("placement = %v/%v", a.Node, a.Disk)
	}
}

func TestConcentrateRejectsBadInput(t *testing.T) {
	if _, err := Concentrate(identityRanks(3), 0, 1); err == nil {
		t.Error("0 nodes accepted")
	}
	if _, err := Concentrate([]int{0, 0, 1}, 2, 2); err == nil {
		t.Error("non-permutation accepted")
	}
}

// Property: Concentrate is a valid assignment and popularity-prefix-
// concentrated — the most popular ceil(n/disks) files share disk 0.
func TestQuickConcentrateValid(t *testing.T) {
	f := func(nRaw, nodesRaw, disksRaw uint8) bool {
		n := int(nRaw)%200 + 1
		nodes := int(nodesRaw)%8 + 1
		disks := int(disksRaw)%4 + 1
		a, err := Concentrate(identityRanks(n), nodes, disks)
		if err != nil {
			return false
		}
		if a.Validate(nodes, disks) != nil {
			return false
		}
		perDisk := (n + nodes*disks - 1) / (nodes * disks)
		for i := 0; i < perDisk && i < n; i++ {
			if a.Node[i] != 0 || a.Disk[i] != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

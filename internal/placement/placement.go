// Package placement implements EEVFS's popularity-ordered round-robin data
// placement (Sections III-B and IV-A of the paper).
//
// The storage server distributes files to storage nodes in descending
// popularity order, round-robin: the most popular file goes to node 0, the
// second most popular to node 1, and so on. Each storage node then places
// the files it receives on its data disks, again round-robin in arrival
// order. Because arrival order is popularity order, both levels end up
// load-balanced by popularity.
package placement

import "fmt"

// Assignment records where every file lives: the storage node and the data
// disk within that node. Slices are indexed by file id.
type Assignment struct {
	Node []int // storage node index per file
	Disk []int // data-disk index within the node, per file
}

// NumFiles returns the number of placed files.
func (a Assignment) NumFiles() int { return len(a.Node) }

// Validate checks structural consistency against the cluster shape.
func (a Assignment) Validate(numNodes, disksPerNode int) error {
	if len(a.Node) != len(a.Disk) {
		return fmt.Errorf("placement: %d node entries vs %d disk entries", len(a.Node), len(a.Disk))
	}
	for f := range a.Node {
		if a.Node[f] < 0 || a.Node[f] >= numNodes {
			return fmt.Errorf("placement: file %d on node %d of %d", f, a.Node[f], numNodes)
		}
		if a.Disk[f] < 0 || a.Disk[f] >= disksPerNode {
			return fmt.Errorf("placement: file %d on disk %d of %d", f, a.Disk[f], disksPerNode)
		}
	}
	return nil
}

// RoundRobin places files given their popularity ranking (ranks[0] is the
// most popular file id). It panics on invalid cluster shapes; ranks must
// be a permutation of the file-id space (checked).
func RoundRobin(ranks []int, numNodes, disksPerNode int) (Assignment, error) {
	if numNodes <= 0 || disksPerNode <= 0 {
		return Assignment{}, fmt.Errorf("placement: invalid cluster shape %d nodes x %d disks", numNodes, disksPerNode)
	}
	n := len(ranks)
	seen := make([]bool, n)
	a := Assignment{Node: make([]int, n), Disk: make([]int, n)}
	perNodeCount := make([]int, numNodes)
	for i, fid := range ranks {
		if fid < 0 || fid >= n || seen[fid] {
			return Assignment{}, fmt.Errorf("placement: ranks is not a permutation (entry %d = %d)", i, fid)
		}
		seen[fid] = true
		node := i % numNodes
		a.Node[fid] = node
		a.Disk[fid] = perNodeCount[node] % disksPerNode
		perNodeCount[node]++
	}
	return a, nil
}

// Concentrate implements PDC-style placement (Pinheiro & Bianchini,
// discussed in Section II of the paper): the first disk is loaded with the
// most popular files, the second disk with the next most popular, and so
// on. Disks are ordered node-major: (node 0, disk 0), (node 0, disk 1),
// ..., (node 1, disk 0), ...
func Concentrate(ranks []int, numNodes, disksPerNode int) (Assignment, error) {
	if numNodes <= 0 || disksPerNode <= 0 {
		return Assignment{}, fmt.Errorf("placement: invalid cluster shape %d nodes x %d disks", numNodes, disksPerNode)
	}
	n := len(ranks)
	totalDisks := numNodes * disksPerNode
	perDisk := (n + totalDisks - 1) / totalDisks
	if perDisk == 0 {
		perDisk = 1
	}
	seen := make([]bool, n)
	a := Assignment{Node: make([]int, n), Disk: make([]int, n)}
	for i, fid := range ranks {
		if fid < 0 || fid >= n || seen[fid] {
			return Assignment{}, fmt.Errorf("placement: ranks is not a permutation (entry %d = %d)", i, fid)
		}
		seen[fid] = true
		globalDisk := i / perDisk
		if globalDisk >= totalDisks {
			globalDisk = totalDisks - 1
		}
		a.Node[fid] = globalDisk / disksPerNode
		a.Disk[fid] = globalDisk % disksPerNode
	}
	return a, nil
}

// LoadStats summarizes how balanced an assignment is under a workload.
type LoadStats struct {
	RequestsPerNode []int
	BytesPerNode    []int64
	RequestsPerDisk [][]int // [node][disk]
}

// Load computes per-node and per-disk load for the given per-file access
// counts and sizes. counts and sizes must be indexed by file id and match
// the assignment length.
func (a Assignment) Load(counts []int, sizes []int64, numNodes, disksPerNode int) (LoadStats, error) {
	if len(counts) != len(a.Node) || len(sizes) != len(a.Node) {
		return LoadStats{}, fmt.Errorf("placement: counts/sizes length mismatch")
	}
	if err := a.Validate(numNodes, disksPerNode); err != nil {
		return LoadStats{}, err
	}
	ls := LoadStats{
		RequestsPerNode: make([]int, numNodes),
		BytesPerNode:    make([]int64, numNodes),
		RequestsPerDisk: make([][]int, numNodes),
	}
	for n := range ls.RequestsPerDisk {
		ls.RequestsPerDisk[n] = make([]int, disksPerNode)
	}
	for f := range a.Node {
		n, d := a.Node[f], a.Disk[f]
		ls.RequestsPerNode[n] += counts[f]
		ls.BytesPerNode[n] += int64(counts[f]) * sizes[f]
		ls.RequestsPerDisk[n][d] += counts[f]
	}
	return ls, nil
}

// Imbalance returns max/mean of the per-node request load (1.0 = perfectly
// balanced). It returns 0 when there is no load at all.
func (ls LoadStats) Imbalance() float64 {
	total, max := 0, 0
	for _, c := range ls.RequestsPerNode {
		total += c
		if c > max {
			max = c
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(ls.RequestsPerNode))
	return float64(max) / mean
}

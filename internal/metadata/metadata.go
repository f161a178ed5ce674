// Package metadata implements EEVFS's two-level distributed metadata
// (Section IV-D of the paper).
//
// The storage server keeps only coarse metadata — which storage node holds
// a file, and the file's size. It deliberately does not know which disk
// inside a node a file lives on, or whether the file has been prefetched.
// Each storage node keeps that local metadata for its own disks. This
// split is what lets the server act purely as a load balancer and access
// point.
package metadata

// FileInfo is the server-side record for one file.
type FileInfo struct {
	Name string
	ID   int   // dense id used by traces and placement
	Size int64 // bytes
	Node int   // storage node holding the file
	// Replica is the index+1 of a node holding a buffer-disk copy of the
	// file (0 = none), so the zero value means "no replica". Reads may
	// fall back to it while the owning node is unhealthy; any write
	// invalidates it first.
	Replica int
}

// ReplicaNode unpacks the replica marker: the node index holding the
// buffer-disk copy, and whether one exists.
func (fi FileInfo) ReplicaNode() (int, bool) {
	if fi.Replica <= 0 {
		return 0, false
	}
	return fi.Replica - 1, true
}

// NodeEntry is a storage node's local record for one file. The JSON
// form is how the node's manifest checkpoint stores it.
type NodeEntry struct {
	ID         int   `json:"id"`
	Size       int64 `json:"size"`
	Disk       int   `json:"disk"`                 // data-disk index inside the node
	Prefetched bool  `json:"prefetched,omitempty"` // a copy lives on the buffer disk
}

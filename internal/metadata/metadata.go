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

import (
	"fmt"
	"sort"
	"sync"
)

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

// NodeMap is one storage node's local metadata: file id -> disk placement
// and prefetch status. Safe for concurrent use.
type NodeMap struct {
	mu         sync.RWMutex
	entries    map[int]NodeEntry
	prefetched int64 // running total size of entries with Prefetched set
}

// bufferBytes is what an entry contributes to the buffer disk's occupancy.
func bufferBytes(e NodeEntry) int64 {
	if e.Prefetched {
		return e.Size
	}
	return 0
}

// NewNodeMap returns an empty node metadata map.
func NewNodeMap() *NodeMap {
	return &NodeMap{entries: make(map[int]NodeEntry)}
}

// Put inserts or replaces an entry.
func (m *NodeMap) Put(e NodeEntry) error {
	if e.Size <= 0 {
		return fmt.Errorf("metadata: node entry for file %d has non-positive size %d", e.ID, e.Size)
	}
	if e.Disk < 0 {
		return fmt.Errorf("metadata: node entry for file %d has negative disk %d", e.ID, e.Disk)
	}
	m.mu.Lock()
	m.prefetched += bufferBytes(e) - bufferBytes(m.entries[e.ID])
	m.entries[e.ID] = e
	m.mu.Unlock()
	return nil
}

// Lookup returns the entry for a file id.
func (m *NodeMap) Lookup(id int) (NodeEntry, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	e, ok := m.entries[id]
	return e, ok
}

// SetPrefetched marks or clears the buffer-disk copy flag. It returns
// false if the file is unknown to this node.
func (m *NodeMap) SetPrefetched(id int, v bool) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[id]
	if !ok {
		return false
	}
	m.prefetched -= bufferBytes(e)
	e.Prefetched = v
	m.prefetched += bufferBytes(e)
	m.entries[id] = e
	return true
}

// Delete removes an entry; it returns false if absent.
func (m *NodeMap) Delete(id int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[id]
	if !ok {
		return false
	}
	m.prefetched -= bufferBytes(e)
	delete(m.entries, id)
	return true
}

// Len returns the number of local files.
func (m *NodeMap) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.entries)
}

// FilesOnDisk returns the ids stored on the given data disk, sorted.
func (m *NodeMap) FilesOnDisk(disk int) []int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var ids []int
	for id, e := range m.entries {
		if e.Disk == disk {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// PrefetchedBytes returns the total size of buffer-disk copies — the
// buffer disk's occupancy, which the write-buffer logic needs to know.
// It is a running counter, O(1): the write path asks on every request.
func (m *NodeMap) PrefetchedBytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.prefetched
}

// IDs returns all file ids known to the node, sorted.
func (m *NodeMap) IDs() []int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	ids := make([]int, 0, len(m.entries))
	for id := range m.entries {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

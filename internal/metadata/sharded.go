package metadata

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// shardCount is the number of lock stripes in a Sharded map. 64 shards
// keep the per-shard collision probability negligible for the node counts
// and client concurrency the prototype targets while costing only a few
// kilobytes of mutexes. Must be a power of two (shard selection masks).
const shardCount = 64

// nameShard maps file names to ids under one stripe of the name index.
type nameShard struct {
	mu sync.RWMutex
	m  map[string]int
}

// idShard maps file ids to their full records under one stripe of the id
// index.
type idShard struct {
	mu sync.RWMutex
	m  map[int]FileInfo
}

// Sharded is a striped server metadata map: the name index and the id
// index are each split over shardCount RWMutex-guarded stripes, so
// lookups of different files proceed without contending on any shared
// lock. It is the map the storage server runs; the two plain maps it
// replaced are kept beside the tests as its reference model (ServerMap).
//
// Lock ordering: no operation ever holds two shard locks at once — each
// acquires a name stripe and an id stripe strictly in sequence — so the
// structure is deadlock-free by construction. The price is that a Put
// racing a Delete on the same name can be observed in a transient state
// (name claimed, record not yet visible); LookupName treats that window
// as "absent", which is exactly what a not-yet-completed create looks
// like.
type Sharded struct {
	names [shardCount]nameShard
	ids   [shardCount]idShard
}

// NewSharded returns an empty striped metadata map.
func NewSharded() *Sharded {
	s := &Sharded{}
	for i := range s.names {
		s.names[i].m = make(map[string]int)
		s.ids[i].m = make(map[int]FileInfo)
	}
	return s
}

func (s *Sharded) nameShard(name string) *nameShard {
	h := fnv.New32a()
	h.Write([]byte(name))
	return &s.names[h.Sum32()&(shardCount-1)]
}

// idShard selects by the id's low bits: server ids are dense and
// monotonic, so consecutive files spread evenly over the stripes.
func (s *Sharded) idShard(id int) *idShard {
	return &s.ids[uint(id)&(shardCount-1)]
}

// Put inserts or replaces a file record. Replacing a name with a
// different id (or vice versa) removes the stale pairing.
func (s *Sharded) Put(fi FileInfo) error {
	if err := validate(fi); err != nil {
		return err
	}
	ns := s.nameShard(fi.Name)
	ns.mu.Lock()
	oldID, hadName := ns.m[fi.Name]
	ns.m[fi.Name] = fi.ID
	ns.mu.Unlock()
	if hadName && oldID != fi.ID {
		s.dropIDIfName(oldID, fi.Name)
	}

	is := s.idShard(fi.ID)
	is.mu.Lock()
	old, hadID := is.m[fi.ID]
	is.m[fi.ID] = fi
	is.mu.Unlock()
	if hadID && old.Name != fi.Name {
		s.dropNameIfID(old.Name, fi.ID)
	}
	return nil
}

// PutIfAbsent atomically claims a name: it installs the record only when
// the name is free and returns false when another record already owns
// it. This is the create path's duplicate gate — under concurrency,
// exactly one of N racing creates of the same name wins.
func (s *Sharded) PutIfAbsent(fi FileInfo) (bool, error) {
	if err := validate(fi); err != nil {
		return false, err
	}
	ns := s.nameShard(fi.Name)
	ns.mu.Lock()
	if _, exists := ns.m[fi.Name]; exists {
		ns.mu.Unlock()
		return false, nil
	}
	ns.m[fi.Name] = fi.ID
	ns.mu.Unlock()

	is := s.idShard(fi.ID)
	is.mu.Lock()
	is.m[fi.ID] = fi
	is.mu.Unlock()
	return true, nil
}

// dropIDIfName removes the id record only if it still names the given
// file (a newer Put for the id must not be clobbered).
func (s *Sharded) dropIDIfName(id int, name string) {
	is := s.idShard(id)
	is.mu.Lock()
	if old, ok := is.m[id]; ok && old.Name == name {
		delete(is.m, id)
	}
	is.mu.Unlock()
}

// dropNameIfID removes the name mapping only if it still points at the
// given id.
func (s *Sharded) dropNameIfID(name string, id int) {
	ns := s.nameShard(name)
	ns.mu.Lock()
	if cur, ok := ns.m[name]; ok && cur == id {
		delete(ns.m, name)
	}
	ns.mu.Unlock()
}

// LookupName returns the record for a file name.
func (s *Sharded) LookupName(name string) (FileInfo, bool) {
	ns := s.nameShard(name)
	ns.mu.RLock()
	id, ok := ns.m[name]
	ns.mu.RUnlock()
	if !ok {
		return FileInfo{}, false
	}
	fi, ok := s.LookupID(id)
	if !ok || fi.Name != name {
		// Mid-replacement window: treat as absent.
		return FileInfo{}, false
	}
	return fi, true
}

// LookupID returns the record for a file id.
func (s *Sharded) LookupID(id int) (FileInfo, bool) {
	is := s.idShard(id)
	is.mu.RLock()
	fi, ok := is.m[id]
	is.mu.RUnlock()
	return fi, ok
}

// Delete removes a file by name. Removing a missing file is a no-op that
// returns false.
func (s *Sharded) Delete(name string) bool {
	ns := s.nameShard(name)
	ns.mu.Lock()
	id, ok := ns.m[name]
	if ok {
		delete(ns.m, name)
	}
	ns.mu.Unlock()
	if !ok {
		return false
	}
	s.dropIDIfName(id, name)
	return true
}

// Len returns the number of files.
func (s *Sharded) Len() int {
	n := 0
	for i := range s.ids {
		s.ids[i].mu.RLock()
		n += len(s.ids[i].m)
		s.ids[i].mu.RUnlock()
	}
	return n
}

// Names returns all file names in sorted order (deterministic listing).
func (s *Sharded) Names() []string {
	var names []string
	for i := range s.names {
		s.names[i].mu.RLock()
		for n := range s.names[i].m {
			names = append(names, n)
		}
		s.names[i].mu.RUnlock()
	}
	sort.Strings(names)
	return names
}

// Clear removes every record. It exists for replication snapshot
// installs, which rebuild the whole map from the primary's state; the
// caller serializes installs against other mutators.
func (s *Sharded) Clear() {
	for i := range s.names {
		s.names[i].mu.Lock()
		s.names[i].m = make(map[string]int)
		s.names[i].mu.Unlock()
	}
	for i := range s.ids {
		s.ids[i].mu.Lock()
		s.ids[i].m = make(map[int]FileInfo)
		s.ids[i].mu.Unlock()
	}
}

// validate is Put's input check.
func validate(fi FileInfo) error {
	if fi.Name == "" {
		return fmt.Errorf("metadata: empty file name")
	}
	if fi.Size <= 0 {
		return fmt.Errorf("metadata: file %q has non-positive size %d", fi.Name, fi.Size)
	}
	if fi.Node < 0 {
		return fmt.Errorf("metadata: file %q has negative node %d", fi.Name, fi.Node)
	}
	return nil
}

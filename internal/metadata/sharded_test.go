package metadata

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// ServerMap is the reference model TestShardedMatchesServerMap holds
// Sharded to: the server's name -> FileInfo map as two plain maps, for one
// goroutine.
type ServerMap struct {
	byName map[string]FileInfo
	byID   map[int]FileInfo
}

// NewServerMap returns an empty server metadata map.
func NewServerMap() *ServerMap {
	return &ServerMap{
		byName: make(map[string]FileInfo),
		byID:   make(map[int]FileInfo),
	}
}

// Put inserts or replaces a file record. Replacing a name with a different
// id (or vice versa) removes the stale pairing.
func (m *ServerMap) Put(fi FileInfo) error {
	if fi.Name == "" {
		return fmt.Errorf("metadata: empty file name")
	}
	if fi.Size <= 0 {
		return fmt.Errorf("metadata: file %q has non-positive size %d", fi.Name, fi.Size)
	}
	if fi.Node < 0 {
		return fmt.Errorf("metadata: file %q has negative node %d", fi.Name, fi.Node)
	}
	if old, ok := m.byName[fi.Name]; ok && old.ID != fi.ID {
		delete(m.byID, old.ID)
	}
	if old, ok := m.byID[fi.ID]; ok && old.Name != fi.Name {
		delete(m.byName, old.Name)
	}
	m.byName[fi.Name] = fi
	m.byID[fi.ID] = fi
	return nil
}

// LookupName returns the record for a file name.
func (m *ServerMap) LookupName(name string) (FileInfo, bool) {
	fi, ok := m.byName[name]
	return fi, ok
}

// LookupID returns the record for a file id.
func (m *ServerMap) LookupID(id int) (FileInfo, bool) {
	fi, ok := m.byID[id]
	return fi, ok
}

// Delete removes a file by name. Removing a missing file is a no-op that
// returns false.
func (m *ServerMap) Delete(name string) bool {
	fi, ok := m.byName[name]
	if !ok {
		return false
	}
	delete(m.byName, name)
	delete(m.byID, fi.ID)
	return true
}

// Len returns the number of files.
func (m *ServerMap) Len() int {
	return len(m.byName)
}

// Names returns all file names in sorted order (deterministic listing).
func (m *ServerMap) Names() []string {
	names := make([]string, 0, len(m.byName))
	for n := range m.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func TestShardedBasicOps(t *testing.T) {
	s := NewSharded()
	if s.Len() != 0 {
		t.Fatalf("fresh map Len = %d", s.Len())
	}
	for i := 0; i < 200; i++ {
		fi := FileInfo{Name: fmt.Sprintf("f%03d", i), ID: i, Size: int64(i + 1), Node: i % 4}
		if err := s.Put(fi); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 200 {
		t.Fatalf("Len = %d, want 200", s.Len())
	}
	fi, ok := s.LookupName("f042")
	if !ok || fi.ID != 42 || fi.Size != 43 {
		t.Fatalf("LookupName(f042) = %+v, %v", fi, ok)
	}
	fi, ok = s.LookupID(42)
	if !ok || fi.Name != "f042" {
		t.Fatalf("LookupID(42) = %+v, %v", fi, ok)
	}
	if !s.Delete("f042") {
		t.Fatal("Delete(f042) = false")
	}
	if s.Delete("f042") {
		t.Fatal("second Delete(f042) = true")
	}
	if _, ok := s.LookupName("f042"); ok {
		t.Fatal("deleted name still resolves")
	}
	if _, ok := s.LookupID(42); ok {
		t.Fatal("deleted id still resolves")
	}
	if s.Len() != 199 {
		t.Fatalf("Len after delete = %d", s.Len())
	}
}

func TestShardedMatchesServerMap(t *testing.T) {
	// The striped map must be observationally identical to ServerMap on a
	// sequential workload, including replacement semantics.
	a, b := NewServerMap(), NewSharded()
	compare := func() {
		t.Helper()
		if !reflect.DeepEqual(a.Names(), b.Names()) || a.Len() != b.Len() {
			t.Fatalf("Names diverge: %v vs %v", a.Names(), b.Names())
		}
		for _, name := range []string{"x", "y", "z", "ghost"} {
			fa, oka := a.LookupName(name)
			fb, okb := b.LookupName(name)
			if oka != okb || fa != fb {
				t.Errorf("LookupName(%q): %+v,%v vs %+v,%v", name, fa, oka, fb, okb)
			}
		}
		for id := -1; id < 4; id++ {
			fa, oka := a.LookupID(id)
			fb, okb := b.LookupID(id)
			if oka != okb || fa != fb {
				t.Errorf("LookupID(%d): %+v,%v vs %+v,%v", id, fa, oka, fb, okb)
			}
		}
	}
	ops := []FileInfo{
		{Name: "x", ID: 0, Size: 10, Node: 0},
		{Name: "y", ID: 1, Size: 20, Node: 1},
		{Name: "x", ID: 2, Size: 30, Node: 0}, // rename id under x: 0 must drop
		{Name: "z", ID: 1, Size: 40, Node: 2}, // steal id 1 from y: y must drop
	}
	for _, fi := range ops {
		errA, errB := a.Put(fi), b.Put(fi)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("Put(%+v): ServerMap err %v vs Sharded err %v", fi, errA, errB)
		}
	}
	compare()
	for _, name := range []string{"x", "ghost"} {
		if da, db := a.Delete(name), b.Delete(name); da != db {
			t.Fatalf("Delete(%q): %v vs %v", name, da, db)
		}
	}
	compare()
}

func TestShardedValidation(t *testing.T) {
	s := NewSharded()
	for _, fi := range []FileInfo{
		{Name: "", ID: 0, Size: 1, Node: 0},
		{Name: "a", ID: 0, Size: 0, Node: 0},
		{Name: "a", ID: 0, Size: -5, Node: 0},
		{Name: "a", ID: 0, Size: 1, Node: -1},
	} {
		if err := s.Put(fi); err == nil {
			t.Errorf("Put(%+v) accepted invalid record", fi)
		}
		if ok, err := s.PutIfAbsent(fi); err == nil || ok {
			t.Errorf("PutIfAbsent(%+v) accepted invalid record", fi)
		}
	}
	if s.Len() != 0 {
		t.Fatalf("invalid Puts left %d records", s.Len())
	}
}

func TestShardedPutIfAbsentRace(t *testing.T) {
	s := NewSharded()
	const racers = 16
	var wins atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < racers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ok, err := s.PutIfAbsent(FileInfo{Name: "one", ID: g, Size: 1, Node: 0})
			if err != nil {
				t.Error(err)
			}
			if ok {
				wins.Add(1)
			}
		}(g)
	}
	wg.Wait()
	if wins.Load() != 1 {
		t.Fatalf("%d racers claimed the name, want exactly 1", wins.Load())
	}
	fi, ok := s.LookupName("one")
	if !ok {
		t.Fatal("claimed name does not resolve")
	}
	if got, _ := s.LookupID(fi.ID); got.Name != "one" {
		t.Fatalf("winner's id %d resolves to %+v", fi.ID, got)
	}
}

func TestShardedConcurrentMixedOps(t *testing.T) {
	s := NewSharded()
	const (
		writers = 4
		perW    = 100
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				id := w*perW + i
				name := fmt.Sprintf("w%d-%03d", w, i)
				if err := s.Put(FileInfo{Name: name, ID: id, Size: 1, Node: w}); err != nil {
					t.Error(err)
				}
				if i%3 == 0 {
					s.Delete(name)
				}
			}
		}(w)
	}
	// Concurrent readers over the whole id space.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < writers*perW; i++ {
				s.LookupID(i)
				s.Len()
			}
		}()
	}
	wg.Wait()
	// Every surviving name must resolve consistently by name and id.
	for _, name := range s.Names() {
		fi, ok := s.LookupName(name)
		if !ok {
			t.Fatalf("listed name %q does not resolve", name)
		}
		back, ok := s.LookupID(fi.ID)
		if !ok || back.Name != name {
			t.Fatalf("id %d of %q resolves to %+v, %v", fi.ID, name, back, ok)
		}
	}
	deletedPerW := (perW + 2) / 3 // i%3==0 for i in [0, perW)
	want := writers * (perW - deletedPerW)
	if got := s.Len(); got != want {
		t.Fatalf("Len = %d, want %d (non-deleted records)", got, want)
	}
}

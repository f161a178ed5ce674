package metadata

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// The TestServerMap* cases state the contract of the storage server's map;
// Sharded is the implementation the server runs.

func TestServerMapPutLookup(t *testing.T) {
	m := NewSharded()
	fi := FileInfo{Name: "a.dat", ID: 7, Size: 100, Node: 2}
	if err := m.Put(fi); err != nil {
		t.Fatal(err)
	}
	got, ok := m.LookupName("a.dat")
	if !ok || got != fi {
		t.Fatalf("LookupName = %+v, %v", got, ok)
	}
	got, ok = m.LookupID(7)
	if !ok || got != fi {
		t.Fatalf("LookupID = %+v, %v", got, ok)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestServerMapMissingLookups(t *testing.T) {
	m := NewSharded()
	if _, ok := m.LookupName("nope"); ok {
		t.Error("missing name found")
	}
	if _, ok := m.LookupID(3); ok {
		t.Error("missing id found")
	}
}

func TestServerMapPutValidation(t *testing.T) {
	m := NewSharded()
	if err := m.Put(FileInfo{Name: "", ID: 0, Size: 1}); err == nil {
		t.Error("empty name accepted")
	}
	if err := m.Put(FileInfo{Name: "x", ID: 0, Size: 0}); err == nil {
		t.Error("zero size accepted")
	}
	if err := m.Put(FileInfo{Name: "x", ID: 0, Size: 1, Node: -1}); err == nil {
		t.Error("negative node accepted")
	}
}

func TestServerMapReplaceKeepsIndexesConsistent(t *testing.T) {
	m := NewSharded()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(m.Put(FileInfo{Name: "a", ID: 1, Size: 10}))
	// Rebind name "a" to a new id: old id must disappear.
	must(m.Put(FileInfo{Name: "a", ID: 2, Size: 10}))
	if _, ok := m.LookupID(1); ok {
		t.Error("stale id 1 still resolvable")
	}
	// Rebind id 2 to a new name: old name must disappear.
	must(m.Put(FileInfo{Name: "b", ID: 2, Size: 10}))
	if _, ok := m.LookupName("a"); ok {
		t.Error("stale name a still resolvable")
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d, want 1", m.Len())
	}
}

func TestServerMapDelete(t *testing.T) {
	m := NewSharded()
	if m.Delete("ghost") {
		t.Error("deleting missing file returned true")
	}
	if err := m.Put(FileInfo{Name: "a", ID: 1, Size: 10}); err != nil {
		t.Fatal(err)
	}
	if !m.Delete("a") {
		t.Error("delete returned false")
	}
	if _, ok := m.LookupID(1); ok {
		t.Error("id survives delete")
	}
}

func TestServerMapNamesSorted(t *testing.T) {
	m := NewSharded()
	for i, n := range []string{"zeta", "alpha", "mid"} {
		if err := m.Put(FileInfo{Name: n, ID: i, Size: 1}); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"alpha", "mid", "zeta"}
	if got := m.Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("Names = %v, want %v", got, want)
	}
}

func TestServerMapConcurrentAccess(t *testing.T) {
	m := NewSharded()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := g*1000 + i
				name := fmt.Sprintf("f-%d", id)
				if err := m.Put(FileInfo{Name: name, ID: id, Size: 1}); err != nil {
					t.Error(err)
					return
				}
				if _, ok := m.LookupName(name); !ok {
					t.Errorf("lost %s", name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if m.Len() != 1600 {
		t.Fatalf("Len = %d, want 1600", m.Len())
	}
}

package fs

import (
	"fmt"
	"sync/atomic"

	"eevfs/internal/metadata"
	"eevfs/internal/proto"
)

// namespace is the state a group of metadata servers replicates — the
// paper's coarse file -> node table and the popularity folded from its
// access log (PAPER.md §1) — and the state machine replog drives;
// transition is the one place an op's kind is decoded.
//
// It owns no lock: the table is striped and the cursors and live folds
// are atomics, so the primary's handlers run transitions concurrently.
// Only a slot's rep fold needs ordering, and it changes under the log
// lock alone (apply of an access op, accessEpoch).
type namespace struct {
	meta     *metadata.Sharded
	pop      popTable     // per file id: size and access fold
	nextID   atomic.Int64 // next file id
	nextNode atomic.Int64 // placement round-robin cursor
	numNodes int
	// plantReshipEpoch is the replication oracle's planted bug: an epoch
	// ships its deltas without recording them as shipped.
	plantReshipEpoch bool
}

func newNamespace(numNodes int) *namespace {
	return &namespace{meta: metadata.NewSharded(), numNodes: numNodes}
}

func storeMax(a *atomic.Int64, v int64) {
	if v > a.Load() {
		a.Store(v)
	}
}

// apply is transition for an op out of the log (append, replay).
func (ns *namespace) apply(op proto.RepOp) error { return ns.transition(op, nil) }

// transition is every change the namespace can undergo, written once:
// the primary's handlers run it before they commit the op, a follower
// for each op appended, a restart for each op logged. A nil claim
// installs a create unconditionally (the log has ordered it); the
// primary passes its node RPC as claim, which makes the create a claim
// of the name — of N racing creates exactly one wins — held only if the
// RPC succeeds.
func (ns *namespace) transition(op proto.RepOp, claim func() error) error {
	switch op.Kind {
	case proto.RepOpCreate:
		err := ns.place(metadata.FileInfo{
			Name: op.Name, ID: int(op.ID), Size: op.Size,
			Node: int(op.Node), Replica: int(op.Replica),
		}, claim)
		if err != nil {
			return err
		}
		// A follower's cursors trail the ops it applies; on the primary,
		// which moved both to build the op, these are no-ops.
		storeMax(&ns.nextID, op.ID+1)
		storeMax(&ns.nextNode, op.Cursor)
		return nil
	case proto.RepOpDelete:
		ns.meta.Delete(op.Name)
		return nil
	case proto.RepOpAccess:
		for _, r := range op.Records {
			sl := ns.pop.slot(r.FileID)
			sl.foldRep(r)
			sl.publishRep()
		}
		return nil
	case proto.RepOpReplica:
		fi, ok := ns.meta.LookupName(op.Name)
		if !ok {
			return nil // deleted concurrently on the primary; a later op removes it here too
		}
		fi.Replica = int(op.Replica)
		return ns.meta.Put(fi)
	default:
		return fmt.Errorf("replication: unknown op kind %d", op.Kind)
	}
}

// place validates one file record and installs it with its size slot.
// Every record enters the table here — any create, a snapshot's files —
// so the node index handlers later index the node set with is checked in
// exactly one place.
func (ns *namespace) place(fi metadata.FileInfo, claim func() error) error {
	if fi.ID < 0 {
		return fmt.Errorf("replication: create of %q with id %d", fi.Name, fi.ID)
	}
	if fi.Node < 0 || fi.Node >= ns.numNodes {
		return fmt.Errorf("fs: file %q placed on node %d, server has %d", fi.Name, fi.Node, ns.numNodes)
	}
	sl := ns.pop.slot(int64(fi.ID))
	sl.size.Store(fi.Size)
	if claim == nil {
		return ns.meta.Put(fi)
	}
	sl.creating.Store(true) // before the name is visible; the committed create clears it
	claimed, err := ns.meta.PutIfAbsent(fi)
	if err != nil {
		return err
	}
	if !claimed {
		return fmt.Errorf("fs: file %q already exists", fi.Name)
	}
	if err := claim(); err != nil {
		ns.meta.Delete(fi.Name) // roll back the claim; the id slot is burned
		return err
	}
	return nil
}

// snapshot captures the state (the log lock excludes applies). It carries
// the sequenced part of each file's access fold and nothing of the live
// part, so the snapshot at seq N is exactly the fold of ops 1..N: a
// follower built from it and one that applied those ops hold — and
// re-encode — the same bytes. Files go in name order, folds in id order;
// the determinism tests rely on both. The durable form leaves the folds
// out: popularity is not persisted.
func (ns *namespace) snapshot(durable bool) proto.RepSnapshot {
	var snap proto.RepSnapshot
	for _, fi := range ns.files() {
		snap.Files = append(snap.Files, proto.RepFile{
			Name: fi.Name, ID: int64(fi.ID), Size: fi.Size,
			Node: int64(fi.Node), Replica: int64(fi.Replica),
		})
	}
	// Creates claim their id before they publish the file and are not
	// ordered by the log lock, so the cursors are read after the walk:
	// every file in the snapshot then has an id below NextID.
	snap.NextID = ns.nextID.Load()
	snap.NextNode = ns.nextNode.Load()
	if !durable {
		ns.pop.each(snap.NextID, func(id int64, sl *popSlot) {
			if r := sl.rep; r.Count > 0 {
				r.FileID = id
				snap.Accesses = append(snap.Accesses, r)
			}
		})
	}
	return snap
}

// restore replaces the state with snap's: a resync from the primary, or
// the checkpoint a restart begins from.
func (ns *namespace) restore(snap proto.RepSnapshot) error {
	ns.meta.Clear()
	ns.pop.reset()
	for _, f := range snap.Files {
		if f.ID >= snap.NextID {
			return fmt.Errorf("fs: snapshot file %q has id %d outside [0, %d)", f.Name, f.ID, snap.NextID)
		}
		if err := ns.place(metadata.FileInfo{
			Name: f.Name, ID: int(f.ID), Size: f.Size,
			Node: int(f.Node), Replica: int(f.Replica),
		}, nil); err != nil {
			return err
		}
	}
	for _, r := range snap.Accesses {
		if r.FileID >= snap.NextID {
			return fmt.Errorf("fs: snapshot counts accesses to id %d outside [0, %d)", r.FileID, snap.NextID)
		}
		sl := ns.pop.slot(r.FileID)
		sl.rep = r
		sl.publishRep()
	}
	ns.nextID.Store(snap.NextID)
	ns.nextNode.Store(snap.NextNode)
	return nil
}

// durable is the form an op takes in the on-disk log: an access epoch
// keeps its seq (replay demands a dense stream) and drops its records.
func (ns *namespace) durable(op proto.RepOp) proto.RepOp {
	op.Records = nil
	return op
}

// accessEpoch builds the op that replicates the accesses counted since
// the previous epoch — a delta per file touched — and records them as
// shipped. Lookups stay lock- and replication-free; followers receive
// popularity in periodic batches, which is all the ranking needs. Runs
// under the log lock (replog.propose).
func (ns *namespace) accessEpoch() (proto.RepOp, bool) {
	var recs []proto.RepAccess
	ns.pop.each(ns.nextID.Load(), func(id int64, sl *popSlot) {
		count, first, last := sl.live()
		if count <= sl.rep.Count {
			return
		}
		d := proto.RepAccess{FileID: id, Count: count - sl.rep.Count, First: first, Last: last}
		recs = append(recs, d)
		if !ns.plantReshipEpoch {
			sl.foldRep(d)
		}
	})
	return proto.RepOp{Kind: proto.RepOpAccess, Records: recs}, len(recs) > 0
}

// files returns the file records in name order.
func (ns *namespace) files() []metadata.FileInfo {
	names := ns.meta.Names()
	out := make([]metadata.FileInfo, 0, len(names))
	for _, name := range names {
		if fi, ok := ns.meta.LookupName(name); ok {
			out = append(out, fi)
		}
	}
	return out
}

// popularity returns every file id's access count and size, the inputs
// of the ranking: a consistent-enough snapshot without any lock. The id
// horizon is loaded first, so a file created after it simply misses this
// prefetch round; a file mid-create reads count 0 and is never selected
// (Select skips zero-count files).
func (ns *namespace) popularity() (counts []int, sizes []int64) {
	numFiles := ns.nextID.Load()
	counts, sizes = make([]int, numFiles), make([]int64, numFiles)
	ns.pop.each(numFiles, func(id int64, sl *popSlot) {
		counts[id], sizes[id] = int(sl.count.Load()), sl.size.Load()
	})
	return counts, sizes
}

// hintsPerNode derives each file's mean request inter-arrival from its
// access fold and groups the hints by owning node. Files seen fewer than
// twice yield no estimate.
func (ns *namespace) hintsPerNode() map[int][]proto.FileHint {
	out := make(map[int][]proto.FileHint)
	ns.pop.each(ns.nextID.Load(), func(id int64, sl *popSlot) {
		count, first, last := sl.live()
		if count < 2 || last <= first {
			return
		}
		fi, ok := ns.meta.LookupID(int(id))
		if !ok {
			return
		}
		out[fi.Node] = append(out[fi.Node], proto.FileHint{
			FileID:          id,
			MeanIntervalSec: (last - first) / float64(count-1),
		})
	})
	return out
}

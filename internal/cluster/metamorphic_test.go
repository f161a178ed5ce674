package cluster

import (
	"math"
	"reflect"
	"testing"

	"eevfs/internal/trace"
	"eevfs/internal/workload"
)

// Metamorphic properties of the simulator (ISSUE 3): known input
// transformations with provable output relations. Unlike the shape tests,
// these need no reference numbers — the simulator is checked against
// itself.

// permuteTies reverses every maximal run of records sharing one arrival
// timestamp and renumbers Seq, producing a valid trace that differs from
// the input only in the ordering of simultaneous requests.
func permuteTies(tr *trace.Trace) *trace.Trace {
	recs := append([]trace.Record(nil), tr.Records...)
	for lo := 0; lo < len(recs); {
		hi := lo + 1
		for hi < len(recs) && recs[hi].TimeS == recs[lo].TimeS {
			hi++
		}
		for i, j := lo, hi-1; i < j; i, j = i+1, j-1 {
			recs[i], recs[j] = recs[j], recs[i]
		}
		lo = hi
	}
	changed := false
	for i := range recs {
		if recs[i].FileID != tr.Records[i].FileID {
			changed = true
		}
		recs[i].Seq = int64(i)
	}
	if !changed {
		return nil
	}
	return &trace.Trace{Records: recs, FileSizes: tr.FileSizes}
}

// TestMetamorphicTiePermutation: requests arriving at the same instant
// have no defined order, so permuting them must not move a single joule
// or power-state transition. (Per-request response times may legally
// change — two simultaneous requests on one disk swap their queue
// positions — which is why the assertion stops at the energy totals.)
func TestMetamorphicTiePermutation(t *testing.T) {
	w := workload.DefaultSynthetic()
	w.NumRequests = 400
	w.InterArrival = 0 // every request arrives at t=0: one giant tie group
	tr, err := workload.Synthetic(w)
	if err != nil {
		t.Fatal(err)
	}
	perm := permuteTies(tr)
	if perm == nil {
		t.Fatal("tie permutation is the identity; workload has no simultaneous distinct requests")
	}

	for _, arm := range []struct {
		name string
		cfg  Config
	}{
		{"PF", DefaultTestbed()},
		{"NPF", DefaultTestbed().NPF()},
		{"Adaptive", DefaultTestbed().AdaptiveArm()},
	} {
		base, err := Run(arm.cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		permuted, err := Run(arm.cfg, perm)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(permuted.TotalEnergyJ-base.TotalEnergyJ) / base.TotalEnergyJ; rel > 1e-9 {
			t.Errorf("%s: tie permutation moved energy %g J -> %g J (rel %g)",
				arm.name, base.TotalEnergyJ, permuted.TotalEnergyJ, rel)
		}
		if permuted.Transitions != base.Transitions ||
			permuted.SpinUps != base.SpinUps || permuted.SpinDowns != base.SpinDowns {
			t.Errorf("%s: tie permutation moved transitions %d/%d/%d -> %d/%d/%d",
				arm.name, base.Transitions, base.SpinUps, base.SpinDowns,
				permuted.Transitions, permuted.SpinUps, permuted.SpinDowns)
		}
		if math.Abs(permuted.MakespanSec-base.MakespanSec)/base.MakespanSec > 1e-9 {
			t.Errorf("%s: tie permutation moved makespan %g -> %g",
				arm.name, base.MakespanSec, permuted.MakespanSec)
		}
	}
}

// scaleSizes multiplies every file size (and request size) by k.
func scaleSizes(tr *trace.Trace, k int64) *trace.Trace {
	recs := append([]trace.Record(nil), tr.Records...)
	sizes := append([]int64(nil), tr.FileSizes...)
	for i := range recs {
		recs[i].Size *= k
	}
	for i := range sizes {
		sizes[i] *= k
	}
	return &trace.Trace{Records: recs, FileSizes: sizes}
}

// TestMetamorphicSizeScalingMonotonic: multiplying every file size by k
// can only lengthen transfers and queues, so mean response time must be
// strictly increasing in k. The NPF arm keeps disks always-on, so the
// relation is pure queueing — no prefetch-selection or power-policy
// feedback to confound it.
func TestMetamorphicSizeScalingMonotonic(t *testing.T) {
	w := workload.DefaultSynthetic()
	w.NumRequests = 300
	tr, err := workload.Synthetic(w)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTestbed().NPF()
	var prev float64
	for i, k := range []int64{1, 2, 4} {
		res, err := Run(cfg, scaleSizes(tr, k))
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.Response.Mean <= prev {
			t.Errorf("k=%d: mean response %g s not above k/2's %g s",
				k, res.Response.Mean, prev)
		}
		prev = res.Response.Mean
	}
}

// TestMetamorphicPrefetchCountInertWithoutPrefetch: K is the Prefetch
// policy's budget, so an arm that never prefetches up front must produce
// the same Result whatever K it carries. NPF clears K on that ground, and
// the experiment battery shares one NPF run across a K sweep.
func TestMetamorphicPrefetchCountInertWithoutPrefetch(t *testing.T) {
	w := workload.DefaultSynthetic()
	w.NumRequests = 300
	tr, err := workload.Synthetic(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range []Config{DefaultTestbed().NPF(), DefaultTestbed().AdaptiveArm()} {
		want, err := Run(arm, tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 10, 70, 1000} {
			cfg := arm
			cfg.PrefetchCount = k
			got, err := Run(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v with K=%d: result differs from K=0\ngot  %+v\nwant %+v", arm.Policy, k, got, want)
			}
		}
	}
}

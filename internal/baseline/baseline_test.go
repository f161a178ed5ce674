package baseline

import (
	"fmt"
	"reflect"
	"testing"

	"eevfs/internal/cluster"
	"eevfs/internal/trace"
	"eevfs/internal/workload"
)

func webTrace(t *testing.T) *trace.Trace {
	t.Helper()
	cfg := workload.DefaultWeb()
	cfg.NumRequests = 400
	tr, err := workload.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// runAll simulates the trace under every comparator, keyed by name.
func runAll(base cluster.Config, tr *trace.Trace) (map[Name]cluster.Result, error) {
	out := make(map[Name]cluster.Result, len(All))
	for _, n := range All {
		cfg, err := Configure(base, n)
		if err != nil {
			return nil, err
		}
		if out[n], err = cluster.Run(cfg, tr); err != nil {
			return nil, fmt.Errorf("baseline %s: %w", n, err)
		}
	}
	return out, nil
}

func TestConfigureAllComparators(t *testing.T) {
	base := cluster.DefaultTestbed()
	for _, n := range All {
		cfg, err := Configure(base, n)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: invalid config: %v", n, err)
		}
	}
}

// TestConfigureLeavesBaseUnchanged: a comparator's config shares nothing
// it writes with its base, so configuring one never changes the next.
func TestConfigureLeavesBaseUnchanged(t *testing.T) {
	base := cluster.DefaultTestbed()
	for _, n := range All {
		if _, err := Configure(base, n); err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if !reflect.DeepEqual(base, cluster.DefaultTestbed()) {
			t.Fatalf("Configure(base, %s) changed its base: %+v", n, base.Nodes)
		}
	}
}

func TestConfigureUnknown(t *testing.T) {
	if _, err := Configure(cluster.DefaultTestbed(), Name("nope")); err == nil {
		t.Fatal("unknown comparator accepted")
	}
}

func TestConfigureProperties(t *testing.T) {
	base := cluster.DefaultTestbed()

	for n, want := range map[Name]cluster.Policy{
		AlwaysOn:     cluster.AlwaysOn,
		ThresholdDPM: cluster.ThresholdDPM,
		MAID:         cluster.MAID,
		PDC:          cluster.ThresholdDPM,
		LowPower:     cluster.AlwaysOn,
		EEVFS:        cluster.PrefetchHinted, // the base's PF arm
	} {
		c, _ := Configure(base, n)
		if c.Policy != want || c.Concentrate != (n == PDC) {
			t.Errorf("%s: policy %v concentrate %v, want %v and %v", n, c.Policy, c.Concentrate, want, n == PDC)
		}
	}

	// EEVFS from a base with K=0 gets the paper default.
	base.PrefetchCount = 0
	ee, _ := Configure(base, EEVFS)
	if ee.PrefetchCount != 70 {
		t.Errorf("EEVFS K = %d, want default 70", ee.PrefetchCount)
	}
	// A base without a PF arm gets the threshold-sleeping one.
	if ee, _ := Configure(base.NPF(), EEVFS); ee.Policy != cluster.Prefetch {
		t.Errorf("EEVFS from an NPF base: policy %v, want %v", ee.Policy, cluster.Prefetch)
	}
}

func TestRunAllOnWebTrace(t *testing.T) {
	comps, err := runAll(cluster.DefaultTestbed(), webTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != len(All) {
		t.Fatalf("got %d comparisons, want %d", len(comps), len(All))
	}

	get := func(n Name) cluster.Result {
		r, ok := comps[n]
		if !ok {
			t.Fatalf("missing %s", n)
		}
		return r
	}

	alwaysOn := get(AlwaysOn)
	eevfs := get(EEVFS)
	maid := get(MAID)

	// The paper's headline: EEVFS beats the no-power-management baseline.
	if eevfs.TotalEnergyJ >= alwaysOn.TotalEnergyJ {
		t.Errorf("EEVFS %.0f J >= AlwaysOn %.0f J", eevfs.TotalEnergyJ, alwaysOn.TotalEnergyJ)
	}
	// AlwaysOn must have zero transitions; every DPM-family comparator
	// produces at least one.
	if alwaysOn.Transitions != 0 {
		t.Errorf("AlwaysOn transitions = %d", alwaysOn.Transitions)
	}
	for _, n := range []Name{ThresholdDPM, PDC, EEVFS} {
		if get(n).Transitions == 0 {
			t.Errorf("%s produced no transitions", n)
		}
	}
	// MAID warms its cache on access: on a skewed read-only trace it gets
	// buffer hits, but strictly fewer than EEVFS's up-front prefetch.
	if maid.BufferHits == 0 {
		t.Error("MAID recorded no cache hits")
	}
	if maid.BufferHits > eevfs.BufferHits {
		t.Errorf("MAID hits %d > EEVFS hits %d on a hot-set trace",
			maid.BufferHits, eevfs.BufferHits)
	}
}

func TestEEVFSWinsOnSkewedWorkload(t *testing.T) {
	comps, err := runAll(cluster.DefaultTestbed(), webTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	least, most := All[0], All[0]
	for _, n := range All {
		if comps[n].TotalEnergyJ < comps[least].TotalEnergyJ {
			least = n
		}
		if comps[n].TotalEnergyJ > comps[most].TotalEnergyJ {
			most = n
		}
	}
	if least != EEVFS || most != AlwaysOn {
		t.Errorf("least energy %s, most %s; want EEVFS and AlwaysOn", least, most)
	}
}

func TestRunAllPropagatesErrors(t *testing.T) {
	bad := cluster.DefaultTestbed()
	bad.IdleThresholdSec = -1
	if _, err := runAll(bad, webTrace(t)); err == nil {
		t.Fatal("invalid base config accepted")
	}
}

func TestMAIDCacheWarming(t *testing.T) {
	// Repeated reads of the same file: first is a miss, the rest hit the
	// MAID cache.
	cfg, err := Configure(cluster.DefaultTestbed(), MAID)
	if err != nil {
		t.Fatal(err)
	}
	w := workload.DefaultSynthetic()
	w.MU = 0 // every request hits file 0
	w.NumRequests = 20
	tr, err := workload.Synthetic(w)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster.Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.BufferMisses != 1 || res.BufferHits != 19 {
		t.Fatalf("hits=%d misses=%d, want 19/1", res.BufferHits, res.BufferMisses)
	}
}

func TestLowPowerBaselineTradesPerformance(t *testing.T) {
	comps, err := runAll(cluster.DefaultTestbed(), webTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	lp, ok := comps[LowPower]
	if !ok {
		t.Fatal("missing lowpower comparator")
	}
	ao, ee := comps[AlwaysOn], comps[EEVFS]

	// Low-power drives save energy over always-on high-performance
	// drives, with zero transitions...
	if lp.TotalEnergyJ >= ao.TotalEnergyJ {
		t.Errorf("LowPower energy %.0f >= AlwaysOn %.0f",
			lp.TotalEnergyJ, ao.TotalEnergyJ)
	}
	if lp.Transitions != 0 {
		t.Errorf("LowPower transitions = %d, want 0", lp.Transitions)
	}
	// ...but pay for it in response time — the paper's argument for a
	// file-system-level approach instead of a hardware swap.
	if lp.Response.Mean <= ao.Response.Mean {
		t.Errorf("LowPower response %.3f not slower than AlwaysOn %.3f",
			lp.Response.Mean, ao.Response.Mean)
	}
	if lp.Response.Mean <= ee.Response.Mean {
		t.Errorf("LowPower response %.3f not slower than EEVFS %.3f",
			lp.Response.Mean, ee.Response.Mean)
	}
}

package eevfs_test

import (
	"io"
	"log"
	"testing"

	"eevfs"
)

// The tests in this file exercise the public API exactly as a downstream
// user would.

func TestPublicSimulationHeadline(t *testing.T) {
	tr, err := eevfs.SyntheticWorkload(eevfs.DefaultSyntheticConfig())
	if err != nil {
		t.Fatal(err)
	}
	pf, err := eevfs.Simulate(eevfs.DefaultTestbed(), tr)
	if err != nil {
		t.Fatal(err)
	}
	npf, err := eevfs.Simulate(eevfs.DefaultTestbed().NPF(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if savings := pf.EnergySavingsVs(npf); savings <= 5 {
		t.Fatalf("headline savings %.1f%%, want > 5%%", savings)
	}
}

func TestPublicWebWorkload(t *testing.T) {
	tr, err := eevfs.SyntheticWorkload(eevfs.DefaultWebConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumFiles() != 1000 || len(tr.Records) != 1000 {
		t.Fatalf("web workload shape: %d files, %d records", tr.NumFiles(), len(tr.Records))
	}
}

func TestPublicExperiments(t *testing.T) {
	ids := eevfs.ExperimentIDs()
	if len(ids) < 15 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	tab, err := eevfs.RunExperiment("fig6", eevfs.ExperimentOptions{Requests: 150})
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "fig6" || len(tab.Rows) != 2 {
		t.Fatalf("fig6 table: %+v", tab)
	}
}

func TestPublicAdaptiveArm(t *testing.T) {
	dc := eevfs.DefaultDriftConfig()
	dc.NumFiles, dc.NumRequests, dc.Phases = 200, 200, 4
	tr, err := eevfs.SyntheticWorkload(dc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != dc.NumRequests {
		t.Fatalf("drift trace has %d records, want %d", len(tr.Records), dc.NumRequests)
	}
	params := eevfs.DefaultAdaptivePolicyParams()
	params.ChurnWindow, params.ChurnCooldown = 24, 3
	cfg := eevfs.DefaultTestbed().AdaptiveArm()
	if cfg.Policy != eevfs.SimAdaptive || eevfs.DefaultTestbed().Policy != eevfs.SimPrefetchHinted {
		t.Fatalf("AdaptiveArm policy %v, testbed policy %v", cfg.Policy, eevfs.DefaultTestbed().Policy)
	}
	cfg.AdaptiveParams = &params
	res, err := eevfs.Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	npf, err := eevfs.Simulate(eevfs.DefaultTestbed().NPF(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalEnergyJ <= 0 || res.TotalEnergyJ > 2*npf.TotalEnergyJ {
		t.Fatalf("adaptive arm energy %g J implausible against NPF %g J",
			res.TotalEnergyJ, npf.TotalEnergyJ)
	}

	// ext-dynamic's phase rotation, flash and diurnal off, is a SyntheticConfig.
	oc := eevfs.SyntheticConfig{NumFiles: 100, NumRequests: 50, MeanSize: 10 * 1e6, MU: 20, Phases: 10, InterArrival: 0.7, Seed: 1}
	if tr, err := eevfs.SyntheticWorkload(oc); err != nil || len(tr.Records) != oc.NumRequests {
		t.Fatalf("ten-phase drift: %v", err)
	}
}

func TestPublicBaselines(t *testing.T) {
	tr, err := eevfs.SyntheticWorkload(eevfs.SyntheticConfig{
		NumFiles: 200, NumRequests: 100, WorkingSet: 30, ZipfS: 1.1,
		MeanSize: 1e6, InterArrival: 0.1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	names := []eevfs.BaselineName{
		eevfs.BaselineAlwaysOn, eevfs.BaselineThresholdDPM, eevfs.BaselineMAID,
		eevfs.BaselinePDC, eevfs.BaselineEEVFS,
	}
	found := map[eevfs.BaselineName]bool{}
	for _, n := range names {
		cfg, err := eevfs.ConfigureBaseline(eevfs.DefaultTestbed(), n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eevfs.Simulate(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		found[n] = res.Requests == len(tr.Records)
	}
	for _, want := range names {
		if !found[want] {
			t.Errorf("missing comparator %s", want)
		}
	}
}

func TestPublicFSRoundTrip(t *testing.T) {
	quiet := log.New(io.Discard, "", 0)
	node, err := eevfs.StartNode(eevfs.NodeConfig{
		Addr: "127.0.0.1:0", RootDir: t.TempDir(), DataDisks: 1,
		DataModel: eevfs.DiskModelType1, BufferModel: eevfs.DiskModelType1,
		IdleThresholdSec: 5, TimeScale: 2000, InjectLatency: true, Logger: quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	srv, err := eevfs.StartServer(eevfs.ServerConfig{
		Addr: "127.0.0.1:0", NodeAddrs: []string{node.Addr()}, Logger: quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := eevfs.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Create("hello.txt", []byte("hello, eevfs")); err != nil {
		t.Fatal(err)
	}
	got, _, err := cl.Read("hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello, eevfs" {
		t.Fatalf("read %q", got)
	}
	if _, err := cl.Prefetch(10); err != nil {
		t.Fatal(err)
	}
	if _, fromBuffer, _ := cl.Read("hello.txt"); !fromBuffer {
		t.Fatal("prefetched file not served from buffer")
	}
}

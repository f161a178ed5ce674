package main

import (
	"encoding/json"
	"io"
	"log"
	"os"
	"path/filepath"
	"testing"
	"time"

	"eevfs/internal/fs"
)

// TestClusterAddrsAttachAndValidation: -addr is split into the server
// list and nothing is booted. (StartLocal's own tests reject 0 nodes or
// servers.)
func TestClusterAddrsAttachAndValidation(t *testing.T) {
	addrs, cleanup, err := clusterAddrs("10.0.0.1:7000,10.0.0.2:7000", 3, 3, "static", false, nil)
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	cleanup()
	if len(addrs) != 2 || addrs[0] != "10.0.0.1:7000" {
		t.Fatalf("attach parsed %v", addrs)
	}
}

func TestSweepSpecValidation(t *testing.T) {
	for _, spec := range []string{"", "100", "100:200", "a:200:2", "100:b:2", "100:200:c",
		"0:200:2", "300:200:2", "100:200:1"} {
		if _, err := runSweep(fs.LoadConfig{}, spec, time.Second, 0); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

func TestKeptUp(t *testing.T) {
	ok := fs.LoadResult{OfferedRate: 100, AchievedRate: 99,
		Ops: map[string]fs.OpStats{fs.LoadOpRead: {Count: 10, P99: 0.01}}}
	if !keptUp(ok, 0) || !keptUp(ok, 0.5) {
		t.Fatal("healthy step judged saturated")
	}
	behind := ok
	behind.AchievedRate = 90
	if keptUp(behind, 0) {
		t.Fatal("90% of offered judged kept-up")
	}
	errored := ok
	errored.Failed = 1
	if keptUp(errored, 0) {
		t.Fatal("typed errors judged kept-up")
	}
	if keptUp(ok, 0.001) {
		t.Fatal("p99 over the bound judged kept-up")
	}
}

// TestSweepEndToEnd boots a standalone cluster the way main does, runs a
// short two-step sweep through it, and checks the rendered and JSON
// outputs — the whole CLI path short of flag parsing and os.Exit.
func TestSweepEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a live cluster")
	}
	logger := log.New(io.Discard, "", 0)
	addrs, cleanup, err := clusterAddrs("", 1, 1, "static", false, logger)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	defer cleanup()

	base := fs.LoadConfig{
		ServerAddrs: addrs,
		Clients:     8,
		Conns:       2,
		Files:       16,
		FileSize:    512,
		ZipfS:       1.1,
		WriteFrac:   0.2,
		Seed:        1,
		ReportEvery: 200 * time.Millisecond,
		OnReport:    printReport,
	}
	res, err := runSweep(base, "100:200:2", 500*time.Millisecond, 1)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if len(res.Steps) != 2 {
		t.Fatalf("got %d steps, want 2", len(res.Steps))
	}
	for i, st := range res.Steps {
		if st.Result.Completed == 0 {
			t.Fatalf("step %d completed no ops", i)
		}
		if st.Result.Failed > 0 {
			t.Fatalf("step %d: %d typed errors: %v", i, st.Result.Failed, st.Result.Errors)
		}
	}
	printSweep(res)
	printResult(res.Steps[1].Result)

	path := filepath.Join(t.TempDir(), "sweep.json")
	if err := writeJSON(path, res); err != nil {
		t.Fatalf("writeJSON: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back SweepResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("result JSON does not round-trip: %v", err)
	}
	if len(back.Steps) != 2 || back.Steps[1].Rate != 200 {
		t.Fatalf("round-tripped sweep lost steps: %+v", back)
	}
	if err := writeJSON("", res); err != nil {
		t.Fatalf("empty path must be a no-op, got %v", err)
	}
}

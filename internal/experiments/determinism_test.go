package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"eevfs/internal/cluster"
	"eevfs/internal/telemetry"
	"eevfs/internal/workload"
)

// The parallel engine's contract: fanning simulations over a
// worker pool must be invisible in the results. These tests run every
// registered experiment and every sweep axis both ways and require deep
// equality — under -race they also prove the fan-out itself is clean.

func TestParallelByteIdenticalAllExperiments(t *testing.T) {
	seq := Options{Requests: 120}
	for _, id := range IDs() {
		a, err := Run(id, seq)
		if err != nil {
			t.Fatalf("%s sequential: %v", id, err)
		}
		for _, workers := range []int{2, -1} {
			par := Options{Requests: 120, Workers: workers}
			b, err := Run(id, par)
			if err != nil {
				t.Fatalf("%s with %d workers: %v", id, workers, err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s: table with %d workers differs from sequential\nseq: %+v\npar: %+v", id, workers, a, b)
			}
		}
	}
}

func TestParallelByteIdenticalSweeps(t *testing.T) {
	for _, a := range []axis{dataSize, popularity, delay, prefetchCount, disksPerNode, clusterSize} {
		seq, err := a.sweep(Options{Requests: 150})
		if err != nil {
			t.Fatalf("%s sequential: %v", a.param, err)
		}
		par, err := a.sweep(Options{Requests: 150, Workers: -1})
		if err != nil {
			t.Fatalf("%s parallel: %v", a.param, err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("%s: parallel sweep differs from sequential", a.param)
		}
	}
}

// TestParallelJournalsIdentical attaches an event journal to every run
// and requires the full event timelines — not just the Result summaries
// — to match between the sequential and the pooled run.
func TestParallelJournalsIdentical(t *testing.T) {
	build := func() ([]run, []*telemetry.Journal) {
		var runs []run
		var journals []*telemetry.Journal
		for _, mu := range []float64{10, 1000} {
			w := Options{Requests: 100}.synthetic()
			w.MU = mu
			tr, err := workload.Synthetic(w)
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range []cluster.Config{cluster.DefaultTestbed(), cluster.DefaultTestbed().NPF()} {
				j := &telemetry.Journal{}
				cfg.Journal = j
				runs = append(runs, run{fmt.Sprintf("mu=%.0f", mu), cfg, tr})
				journals = append(journals, j)
			}
		}
		return runs, journals
	}

	runsSeq, jSeq := build()
	resSeq, err := simulate(Options{}, runsSeq)
	if err != nil {
		t.Fatal(err)
	}
	runsPar, jPar := build()
	resPar, err := simulate(Options{Workers: 4}, runsPar)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(resSeq, resPar) {
		t.Error("parallel results differ from sequential")
	}
	for i := range jSeq {
		if jSeq[i].Len() == 0 {
			t.Fatalf("run %d: empty journal (instrumentation lost?)", i)
		}
		if !reflect.DeepEqual(jSeq[i].Events(), jPar[i].Events()) {
			t.Errorf("run %d: parallel journal differs from sequential", i)
		}
	}
}

// TestSimulateFirstErrorInRunOrder pins simulate's error contract: with
// several failing runs, the pool reports the first in run order, named by
// its label, whichever worker finished first.
func TestSimulateFirstErrorInRunOrder(t *testing.T) {
	tr, err := workload.Synthetic(Options{Requests: 50}.synthetic())
	if err != nil {
		t.Fatal(err)
	}
	bad := cluster.DefaultTestbed()
	bad.IdleThresholdSec = 0
	runs := []run{{"ok", cluster.DefaultTestbed(), tr}, {"first", bad, tr}, {"second", bad, tr}}
	for _, workers := range []int{0, 3} {
		_, err := simulate(Options{Workers: workers}, runs)
		if err == nil || !strings.HasPrefix(err.Error(), "experiments: first: ") {
			t.Errorf("%d workers: err = %v, want the run labelled first", workers, err)
		}
	}
}

// TestRunManyMatchesRunLoop pins RunMany's ordered collection: the table
// slice must equal a plain sequential Run loop, id for id.
func TestRunManyMatchesRunLoop(t *testing.T) {
	ids := []string{"fig3b", "tableII", "ext-hints", "fig6"}
	o := Options{Requests: 100}
	want := make([]Table, len(ids))
	for i, id := range ids {
		var err error
		want[i], err = Run(id, o)
		if err != nil {
			t.Fatal(err)
		}
	}
	par := o
	par.Workers = 3
	got, err := RunMany(ids, par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("RunMany tables differ from sequential Run loop")
	}
}

func TestWorkersResolution(t *testing.T) {
	if got := (Options{}).workers(); got != 1 {
		t.Errorf("zero Workers resolved to %d, want 1", got)
	}
	if got := (Options{Workers: 6}).workers(); got != 6 {
		t.Errorf("Workers=6 resolved to %d", got)
	}
	if got := (Options{Workers: -1}).workers(); got < 1 {
		t.Errorf("negative Workers resolved to %d, want >= 1", got)
	}
}

package experiments

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"eevfs/internal/cluster"
	"eevfs/internal/telemetry"
	"eevfs/internal/trace"
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
		seq, err := a.points(Options{Requests: 150}, true)
		if err != nil {
			t.Fatalf("%s sequential: %v", a.param, err)
		}
		par, err := a.points(Options{Requests: 150, Workers: -1}, true)
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

// batteryRuns is how many simulations the whole battery makes: one per
// distinct (trace, config) of each experiment, and no NPF arm in the
// transitions panels.
const batteryRuns = 144

// TestBatterySimulatesNothingTwice watches every simulate call of the
// battery: no experiment may simulate equal traces under equal configs
// twice, the transitions panels (Fig. 4) may simulate only the PF arm,
// and the battery's count of cluster.Run calls is pinned.
func TestBatterySimulatesNothingTwice(t *testing.T) {
	var seen []run
	onSimulate = func(distinct []run) { seen = append(seen, distinct...) }
	t.Cleanup(func() { onSimulate = nil })
	total := 0
	for _, id := range IDs() {
		seen = nil
		if _, err := Run(id, Options{Requests: 100}); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for i, r := range seen {
			for _, q := range seen[:i] {
				if reflect.DeepEqual(*q.trace, *r.trace) && reflect.DeepEqual(q.cfg, r.cfg) {
					t.Errorf("%s: %q and %q simulate equal traces under equal configs", id, q.label, r.label)
				}
			}
			if strings.HasPrefix(id, "fig4") && !r.cfg.Policy.Prefetches() {
				t.Errorf("%s: %q simulates the %v arm; the panel reads PF only", id, r.label, r.cfg.Policy)
			}
		}
		total += len(seen)
	}
	t.Logf("the battery makes %d cluster.Run calls", total)
	if total != batteryRuns {
		t.Errorf("the battery makes %d cluster.Run calls, want %d", total, batteryRuns)
	}
}

// One RunMany call of the whole battery simulates each distinct run once
// and generates each distinct trace once, across all its experiments:
// Figs. 4 and 5 repeat the runs of Fig. 3, and five ext-* tables repeat
// runs of other tables.
const (
	batteryDistinctRuns = 78
	batteryTraces       = 16
)

// TestRunManySharesAcrossTheBattery watches one RunMany call of the whole
// battery: it must make one simulate call of batteryDistinctRuns runs on
// batteryTraces traces, no two of them equal, and render every table as
// Run renders it alone. A second call must simulate everything again:
// nothing is remembered across calls.
func TestRunManySharesAcrossTheBattery(t *testing.T) {
	var calls [][]run
	onSimulate = func(distinct []run) { calls = append(calls, distinct) }
	t.Cleanup(func() { onSimulate = nil })
	for _, seed := range []uint64{1, 7} {
		var want []Table
		for _, id := range IDs() {
			tab, err := Run(id, Options{Requests: 100, Seed: seed})
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			want = append(want, tab)
		}
		for _, workers := range []int{0, 2} {
			for call := 1; call <= 2; call++ {
				calls = nil
				got, err := RunMany(IDs(), Options{Requests: 100, Seed: seed, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if len(calls) != 1 {
					t.Fatalf("seed %d, %d workers, call %d: %d simulate calls, want 1", seed, workers, call, len(calls))
				}
				var traces []*trace.Trace
				for _, r := range calls[0] {
					if !slices.Contains(traces, r.trace) {
						traces = append(traces, r.trace)
					}
				}
				for i, tr := range traces {
					for _, q := range traces[:i] {
						if reflect.DeepEqual(*q, *tr) {
							t.Errorf("seed %d: two equal traces generated", seed)
						}
					}
				}
				if call == 1 && seed == 1 && workers == 0 {
					t.Logf("the battery in one RunMany call makes %d cluster.Run calls on %d traces", len(calls[0]), len(traces))
				}
				if len(calls[0]) != batteryDistinctRuns || len(traces) != batteryTraces {
					t.Errorf("seed %d, %d workers, call %d: %d cluster.Run calls on %d traces, want %d on %d",
						seed, workers, call, len(calls[0]), len(traces), batteryDistinctRuns, batteryTraces)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d, %d workers, call %d: the battery's tables differ from Run's alone", seed, workers, call)
				}
			}
		}
	}
}

// TestSimulateSharesEqualRuns pins simulate's sharing: a run equal to an
// earlier one (same trace, equal config) is not simulated again but gets
// the same result at its own index, while a run with a journal is always
// simulated, even next to an equal one with a journal of its own, so that
// every journal fills.
func TestSimulateSharesEqualRuns(t *testing.T) {
	tr, err := workload.Synthetic(Options{Requests: 80}.synthetic())
	if err != nil {
		t.Fatal(err)
	}
	pf, k10 := cluster.DefaultTestbed(), cluster.DefaultTestbed()
	k10.PrefetchCount = 10
	var distinct []string
	onSimulate = func(d []run) {
		for _, r := range d {
			distinct = append(distinct, r.label)
		}
	}
	t.Cleanup(func() { onSimulate = nil })
	for _, workers := range []int{0, 3} {
		journals := []*telemetry.Journal{{}, {}}
		journaled := []cluster.Config{pf.NPF(), pf.NPF()}
		for i := range journaled {
			journaled[i].Journal = journals[i]
		}
		runs := []run{
			{"pf", pf, tr}, {"npf", pf.NPF(), tr}, {"pf again", pf, tr},
			{"npf from K=10", k10.NPF(), tr},
			{"journaled npf", journaled[0], tr}, {"journaled npf again", journaled[1], tr},
		}
		distinct = nil
		got, err := simulate(Options{Workers: workers}, runs)
		if err != nil {
			t.Fatal(err)
		}
		if want := []string{"pf", "npf", "journaled npf", "journaled npf again"}; !reflect.DeepEqual(distinct, want) {
			t.Errorf("%d workers: simulated %q, want %q", workers, distinct, want)
		}
		for i, j := range journals {
			if j.Len() == 0 {
				t.Errorf("%d workers: journal %d is empty: its run was shared", workers, i)
			}
		}
		for i, r := range runs {
			r.cfg.Journal = nil
			want, err := cluster.Run(r.cfg, r.trace)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Errorf("%d workers: %s: shared result differs from its own run", workers, r.label)
			}
		}
	}
}

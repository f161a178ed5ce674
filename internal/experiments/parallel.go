package experiments

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"

	"eevfs/internal/cluster"
	"eevfs/internal/trace"
)

// The experiment engine. Every simulation is an independent pure function
// of (config, trace), and cluster.Run is fully deterministic, so fanning
// the simulations out over a worker pool cannot change any result —
// provided no config is written once built, traces are only ever read,
// and results are collected in run order rather than completion order.
// For the same reason two runs of one trace under equal configs are one
// simulation: simulate runs it once and hands both the result. The
// sharing lives and dies with one simulate call; nothing is remembered
// across calls. simulate and RunMany encode exactly those rules; the
// determinism tests hold them to byte-identity with the sequential path.

// run is one simulation: a row label, a fully built config and the trace
// it replays. Runs are built sequentially — trace generation is cheap and
// keeps the per-run RNG seeding deterministic — and only the simulations
// fan out.
type run struct {
	label string
	cfg   cluster.Config
	trace *trace.Trace
}

// arms is the paper's comparison at one point: PF, then NPF, on one trace.
func arms(label string, cfg cluster.Config, tr *trace.Trace) []run {
	return []run{{label + " PF", cfg, tr}, {label + " NPF", cfg.NPF(), tr}}
}

// sameRun reports whether b would simulate exactly what a does: the same
// trace under an equal config. A run with a journal is never the same as
// another, since its events are its own.
func sameRun(a, b run) bool {
	return a.trace == b.trace && a.cfg.Journal == nil && b.cfg.Journal == nil &&
		reflect.DeepEqual(a.cfg, b.cfg)
}

// onSimulate, when a test sets it, sees the distinct runs of each
// simulate call just before they are simulated.
var onSimulate func(distinct []run)

// simulate runs the simulations — one per distinct run, across a worker
// pool when Options.Workers asks for one — and returns a result for every
// run in run order, or the first error in run order, naming its run. It
// is the package's only caller of cluster.Run.
func simulate(o Options, runs []run) ([]cluster.Result, error) {
	var distinct []run
	slot := make([]int, len(runs)) // runs[i]'s index in distinct
	for i, r := range runs {
		slot[i] = slices.IndexFunc(distinct, func(d run) bool { return sameRun(d, r) })
		if slot[i] < 0 {
			slot[i] = len(distinct)
			distinct = append(distinct, r)
		}
	}
	if onSimulate != nil {
		onSimulate(distinct)
	}
	res, err := fanOut(o.workers(), len(distinct), func(i int) (cluster.Result, error) {
		res, err := cluster.Run(distinct[i].cfg, distinct[i].trace)
		if err != nil {
			return res, fmt.Errorf("experiments: %s: %w", distinct[i].label, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]cluster.Result, len(runs))
	for i, s := range slot {
		out[i] = res[s]
	}
	return out, nil
}

// workers resolves Options.Workers: 0 and 1 mean sequential, n > 1 means
// an n-worker pool, and any negative value means GOMAXPROCS.
func (o Options) workers() int {
	if o.Workers < 0 {
		return runtime.GOMAXPROCS(0)
	}
	if o.Workers == 0 {
		return 1
	}
	return o.Workers
}

// fanOut calls fn(0..n-1) on a pool of worker goroutines fed from a
// shared index channel — one worker calls them in order — and returns the
// results in index order, or the first error in index order: what the
// sequential loop would have returned.
func fanOut[T any](workers, n int, fn func(int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i], errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RunMany executes several registered experiments, fanning them out over
// Options.Workers workers, and returns their tables in the order the ids
// were given — byte-identical to calling Run in a loop.
func RunMany(ids []string, o Options) ([]Table, error) {
	return fanOut(o.workers(), len(ids), func(i int) (Table, error) {
		return Run(strings.TrimSpace(ids[i]), o)
	})
}

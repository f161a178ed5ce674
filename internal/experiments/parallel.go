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
	"eevfs/internal/workload"
)

// The experiment engine: RunMany plans every experiment, simulates all
// their runs in one simulate call, then renders. Each simulation is a
// pure function of (config, trace), so fanning them over a worker pool
// cannot change any result — provided no config is written once built,
// traces are only ever read, and results are collected in run order. For
// the same reason two runs of one trace under equal configs are one
// simulation, whichever experiment planned them. The sharing lives and
// dies with one RunMany call; nothing is remembered across calls. The
// determinism tests hold this to byte-identity with the sequential path.

// run is one simulation: a row label, a fully built config and the trace
// it replays. Runs are built sequentially — trace generation is cheap and
// keeps the per-run RNG seeding deterministic — and only the simulations
// fan out.
type run struct {
	label string
	cfg   cluster.Config
	trace *trace.Trace
}

// plan is an experiment's first phase: the runs its table reads, and how
// to render the table from their results, given in run order.
type plan struct {
	runs   []run
	render func(res []cluster.Result) Table
}

// planner builds the plans of one RunMany call. It generates one trace
// per distinct workload config, so the experiments of a call that replay
// equal workloads replay the same *trace.Trace, and simulate shares
// their equal runs. A planner dies with its call.
type planner struct {
	Options
	traces map[workload.SyntheticConfig]*trace.Trace
}

// trace returns the planner's trace of workload w, generating it on first
// use.
func (p *planner) trace(w workload.SyntheticConfig) (tr *trace.Trace, err error) {
	if tr = p.traces[w]; tr == nil {
		tr, err = workload.Synthetic(w)
		p.traces[w] = tr
	}
	return tr, err
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

// execute simulates the runs of every plan in one simulate call and
// renders each plan's table from its share of the results.
func execute(o Options, plans []plan) ([]Table, error) {
	var runs []run
	for _, pl := range plans {
		runs = append(runs, pl.runs...)
	}
	res, err := simulate(o, runs)
	if err != nil {
		return nil, err
	}
	tables := make([]Table, len(plans))
	for i, pl := range plans {
		tables[i], res = pl.render(res[:len(pl.runs)]), res[len(pl.runs):]
	}
	return tables, nil
}

// RunMany executes several registered experiments and returns their
// tables in the order the ids were given — byte-identical to calling Run
// on each — simulating each distinct run of them all once. The error is
// the first failing experiment's, in id order.
func RunMany(ids []string, o Options) ([]Table, error) {
	p := &planner{o, map[workload.SyntheticConfig]*trace.Trace{}}
	var plans []plan
	for _, id := range ids {
		id = strings.TrimSpace(id)
		build, ok := registry[id]
		if !ok {
			build = func(*planner) (plan, error) { return plan{}, fmt.Errorf("experiments: unknown experiment %q", id) }
		}
		pl, err := build(p)
		if err != nil {
			if _, simErr := execute(o, plans); simErr != nil {
				return nil, simErr // an earlier experiment's
			}
			return nil, err
		}
		plans = append(plans, pl)
	}
	return execute(o, plans)
}

// Run executes one registered experiment.
func Run(id string, o Options) (Table, error) {
	tables, err := RunMany([]string{id}, o)
	if err != nil {
		return Table{}, err
	}
	return tables[0], nil
}

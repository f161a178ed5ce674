package experiments

import (
	"fmt"
	"math"
	"strings"

	"eevfs/internal/cluster"
	"eevfs/internal/disk"
	"eevfs/internal/workload"
)

// Options scales and seeds an experiment run. The zero value means "the
// paper's parameters"; tests shrink Requests to keep CI fast.
type Options struct {
	// Requests overrides the trace length (paper: 1000).
	Requests int
	// Seed overrides the workload seed (default 1).
	Seed uint64
	// Workers sets the simulation concurrency: 0 or 1 runs sequentially,
	// n > 1 fans the simulations over n workers, negative means
	// GOMAXPROCS. Results are byte-identical either way
	// (see parallel.go).
	Workers int
}

func (o Options) requests() int {
	if o.Requests > 0 {
		return o.Requests
	}
	return 1000
}

func (o Options) seed() uint64 {
	if o.Seed != 0 {
		return o.Seed
	}
	return 1
}

func (o Options) synthetic() workload.SyntheticConfig {
	cfg := workload.DefaultSynthetic()
	cfg.NumRequests = o.requests()
	cfg.Seed = o.seed()
	return cfg
}

// web is the Berkeley-web-equivalent workload (10 MB data size) of Fig. 6
// and the baseline comparison.
func (o Options) web() workload.SyntheticConfig {
	w := workload.DefaultWeb()
	w.NumRequests = o.requests()
	w.Seed = o.seed()
	return w
}

// axis is one swept parameter, compared PF against NPF at every value.
// A value changes the default synthetic workload, the default testbed, or
// both; values whose workloads are equal replay one trace.
type axis struct {
	name     string // the parameter as Table II names it, if it does
	param    string // column header for the swept value
	values   []float64
	label    string // row label format for one value
	workload func(w *workload.SyntheticConfig, v float64)
	config   func(c *cluster.Config, v float64)
}

// The four axes of Table II, each swept with the others at their
// defaults (Figs. 3, 4 and 5 share one axis per panel letter), and
// extension X1: the paper's Section VII claim that savings grow as more
// data disks are added per storage node, on the fully-covered MU=100
// workload.
var (
	dataSize = axis{
		name: "Data Size (MB)", param: "size", values: []float64{1, 10, 25, 50}, label: "%.0fMB",
		workload: func(w *workload.SyntheticConfig, mb float64) { w.MeanSize = int64(mb) * 1e6 },
	}
	popularity = axis{
		name: "File Popularity Rate (MU)", param: "MU", values: []float64{1, 10, 100, 1000}, label: "%.0f",
		workload: func(w *workload.SyntheticConfig, mu float64) { w.MU = mu },
	}
	delay = axis{
		name: "Inter-arrival Delay (ms)", param: "delay", values: []float64{0, 350, 700, 1000}, label: "%.0fms",
		workload: func(w *workload.SyntheticConfig, ms float64) { w.InterArrival = ms / 1000 },
	}
	prefetchCount = axis{
		name: "Number of Files to Prefetch", param: "K", values: []float64{10, 40, 70, 100}, label: "%.0f",
		config: func(c *cluster.Config, k float64) { c.PrefetchCount = int(k) },
	}
	disksPerNode = axis{
		param: "data disks", values: []float64{1, 2, 4, 8}, label: "%.0f",
		workload: func(w *workload.SyntheticConfig, _ float64) { w.MU = 100 },
		config: func(c *cluster.Config, nd float64) {
			for i := range c.Nodes {
				c.Nodes[i].DataDisks = int(nd)
			}
		},
	}
)

// list renders the axis values as Table II's "values" cell.
func (a axis) list() string {
	s := make([]string, len(a.values))
	for i, v := range a.values {
		s[i] = fmt.Sprint(v)
	}
	return strings.Join(s, ", ")
}

// point is one axis value with both comparison arms; npf is the zero
// Result in a sweep that left the NPF arm out.
type point struct {
	label   string
	pf, npf cluster.Result
}

// sweep plans PF at every value of the axis, and NPF next to it when
// withNPF is set, and renders the table from the points.
func (a axis) sweep(p *planner, withNPF bool, render func([]point) Table) (plan, error) {
	var runs []run
	for _, v := range a.values {
		w, cfg := p.synthetic(), cluster.DefaultTestbed()
		if a.workload != nil {
			a.workload(&w, v)
		}
		if a.config != nil {
			a.config(&cfg, v)
		}
		tr, err := p.trace(w)
		if err != nil {
			return plan{}, err
		}
		label := fmt.Sprintf(a.label, v)
		if withNPF {
			runs = append(runs, arms(label, cfg, tr)...)
		} else {
			runs = append(runs, run{label + " PF", cfg, tr})
		}
	}
	return plan{runs, func(res []cluster.Result) Table {
		per := len(res) / len(a.values)
		pts := make([]point, len(a.values))
		for i, v := range a.values {
			pts[i] = point{label: fmt.Sprintf(a.label, v), pf: res[per*i]}
			if withNPF {
				pts[i].npf = res[per*i+1]
			}
		}
		return render(pts)
	}}, nil
}

// metric is what a figure panel measures over an axis: Fig. 3 energy,
// Fig. 4 power-state transitions or Fig. 5 response time. A metric whose
// cells read only the PF arm sets pfOnly, and its sweeps simulate no NPF.
type metric struct {
	columns []string // the table's columns after the axis column
	pfOnly  bool
	cells   func(pf, npf cluster.Result) []string
}

var (
	energy = metric{
		columns: []string{"PF energy (J)", "NPF energy (J)", "savings"},
		cells: func(pf, npf cluster.Result) []string {
			return []string{fmtJ(pf.TotalEnergyJ), fmtJ(npf.TotalEnergyJ), fmtPct(pf.EnergySavingsVs(npf))}
		},
	}
	// transitions reports the PF arm only: NPF never sleeps. The wear
	// column is the paper's Section VI-B reliability concern (fmtWear).
	transitions = metric{
		columns: []string{"transitions", "spin-ups", "spin-downs", "worst wear (yr)"},
		pfOnly:  true,
		cells: func(pf, _ cluster.Result) []string {
			return []string{fmt.Sprint(pf.Transitions), fmt.Sprint(pf.SpinUps), fmt.Sprint(pf.SpinDowns), fmtWear(pf, 1)}
		},
	}
	response = metric{
		columns: []string{"PF resp (s)", "NPF resp (s)", "penalty"},
		cells: func(pf, npf cluster.Result) []string {
			return []string{fmtS(pf.Response.Mean), fmtS(npf.Response.Mean), fmtPct(pf.ResponsePenaltyVs(npf))}
		},
	}
)

// table renders a sweep as a figure panel's table.
func (m metric) table(id, title, param string, pts []point, notes []string) Table {
	t := Table{ID: id, Title: title, Columns: append([]string{param}, m.columns...), Notes: notes}
	for _, p := range pts {
		t.AddRow(append([]string{p.label}, m.cells(p.pf, p.npf)...)...)
	}
	return t
}

// fmtWear extrapolates the worst disk's sleep-cycle rate to the years it
// would take to exhaust the drive's rated start/stop cycles.
func fmtWear(r cluster.Result, prec int) string {
	wear := r.WorstWearYears(disk.RatedStartStopCycles)
	if math.IsInf(wear, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.*f", prec, wear)
}

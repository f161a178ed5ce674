package experiments

import (
	"fmt"
	"slices"
	"sort"

	"eevfs/internal/baseline"
	"eevfs/internal/cluster"
	"eevfs/internal/trace"
	"eevfs/internal/workload"
)

// registry maps experiment ids (the per-experiment index in DESIGN.md)
// to their plans; fig3a to fig5d and ext-disks are added from the figures
// table.
var registry = map[string]func(*planner) (plan, error){
	"tableI":             tableI,
	"tableII":            tableII,
	"fig6":               fig6,
	"ext-hints":          extHints,
	"ext-baselines":      extBaselines,
	"ext-writes":         extWrites,
	"ext-stripe":         extStripe,
	"ext-dynamic":        extDynamic,
	"ext-threshold":      extThreshold,
	"ext-scale":          extScale,
	"ext-buffers":        extBuffers,
	"ext-adaptive-drift": extAdaptiveDrift,
	"ext-adaptive-flash": extAdaptiveFlash,
	"ext-adaptive-churn": extAdaptiveChurn,
}

// IDs returns all experiment ids in stable presentation order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return orderKey(ids[i]) < orderKey(ids[j]) })
	return ids
}

// orderKey sorts tables first, then figures in paper order, then
// extensions.
func orderKey(id string) string {
	switch {
	case id == "tableI":
		return "0a"
	case id == "tableII":
		return "0b"
	case len(id) > 3 && id[:3] == "fig":
		return "1" + id
	default:
		return "2" + id
	}
}

// rows plans one row per run: the run's label, then cells(result).
func rows(t Table, runs []run, cells func(cluster.Result) []string) plan {
	return plan{runs, func(res []cluster.Result) Table {
		t := t
		for i, r := range res {
			t.AddRow(append([]string{runs[i].label}, cells(r)...)...)
		}
		return t
	}}
}

// tableI renders the simulated testbed configuration (the stand-in for the
// paper's Table I).
func tableI(*planner) (plan, error) {
	cfg := cluster.DefaultTestbed()
	t := Table{
		ID:    "tableI",
		Title: "Configuration of the simulated cluster storage system",
		Columns: []string{
			"node", "count", "NIC (Mb/s)", "disk model", "disk BW (MB/s)",
			"data disks", "buffer disks",
		},
		Notes: []string{
			"paper: 1 storage server (P4 2.0 GHz, SATA 100 MB/s) + 4 Type 1 + 4 Type 2 storage nodes",
			fmt.Sprintf("node base power %.0f W; disk power parameters in internal/disk/params.go", cfg.NodeBasePowerW),
			fmt.Sprintf("disk idle threshold %.0f s (Table II)", cfg.IdleThresholdSec),
		},
	}
	counts := map[cluster.NodeConfig]int{}
	var types []cluster.NodeConfig
	for _, n := range cfg.Nodes {
		if counts[n] == 0 {
			types = append(types, n)
		}
		counts[n]++
	}
	for i, n := range types {
		t.AddRow(
			fmt.Sprintf("type %d", i+1),
			fmt.Sprintf("%d", counts[n]),
			fmt.Sprintf("%.0f", n.LinkMbps),
			n.DataModel.Name,
			fmt.Sprintf("%.0f", n.DataModel.BandwidthMBps),
			fmt.Sprintf("%d", n.DataDisks),
			fmt.Sprintf("%d", max(n.BufferDisks, 1)),
		)
	}
	return plan{render: func([]cluster.Result) Table { return t }}, nil
}

// tableII renders the system and workload parameter space (the paper's
// Table II): the four swept axes, then the parameters the evaluation
// holds fixed, each with its default.
func tableII(*planner) (plan, error) {
	w, c := workload.DefaultSynthetic(), cluster.DefaultTestbed()
	t := Table{
		ID:      "tableII",
		Title:   "System and workload parameters",
		Columns: []string{"parameter", "values", "default"},
	}
	t.AddRow(dataSize.name, dataSize.list(), fmt.Sprint(float64(w.MeanSize)/1e6))
	t.AddRow(popularity.name, popularity.list(), fmt.Sprint(w.MU))
	t.AddRow(delay.name, delay.list(), fmt.Sprint(w.InterArrival*1000))
	t.AddRow(prefetchCount.name, prefetchCount.list(), fmt.Sprint(c.PrefetchCount))
	t.AddRow("Disk Idle Threshold (s)", fmt.Sprint(c.IdleThresholdSec), fmt.Sprint(c.IdleThresholdSec))
	t.AddRow("Total files", fmt.Sprint(w.NumFiles), fmt.Sprint(w.NumFiles))
	t.AddRow("Requests per trace", fmt.Sprint(w.NumRequests), fmt.Sprint(w.NumRequests))
	return plan{render: func([]cluster.Result) Table { return t }}, nil
}

// figure is one table of PF-vs-NPF results over an axis: a panel of the
// paper's Figures 3 to 5, or ext-disks.
type figure struct {
	id     string
	axis   axis
	metric metric
	title  string
	notes  []string
}

var figures = []figure{
	{"fig3a", dataSize, energy, "Energy vs data size (PF vs NPF)", []string{
		"paper shape: PF wins at every size; reported gains 11% (1 MB) to 15% (50 MB); 50 MB inflates totals via queueing"}},
	{"fig3b", popularity, energy, "Energy vs popularity rate MU (PF vs NPF)", []string{
		"paper shape: identical PF energy for MU <= 100 (K=70 covers everything, disks sleep whole trace); smaller gain at MU=1000"}},
	{"fig3c", delay, energy, "Energy vs inter-arrival delay (PF vs NPF)", []string{
		"paper shape: savings grow with delay and level off near 700 ms",
		"absolute energy scales with the run's makespan; the paper's testbed replayed traces of similar wall-clock length across delays"}},
	{"fig3d", prefetchCount, energy, "Energy vs number of files to prefetch (PF vs NPF)", []string{
		"paper shape: K=10 yields only ~3% savings; K >= 40 yields significant savings"}},
	{"fig4a", dataSize, transitions, "Power-state transitions vs data size", []string{
		"paper shape: transitions decrease as data size increases"}},
	{"fig4b", popularity, transitions, "Power-state transitions vs MU", []string{
		"paper shape: near-minimum transitions for MU <= 100 (one sleep per disk), hundreds at MU=1000"}},
	{"fig4c", delay, transitions, "Power-state transitions vs inter-arrival delay", []string{
		"paper shape: transitions decrease as the delay increases (lighter load, longer windows)"}},
	{"fig4d", prefetchCount, transitions, "Power-state transitions vs number of files to prefetch", []string{
		"paper shape: K=10 produces the most transitions of all tests (paper: 447) for the least savings"}},
	{"fig5a", dataSize, response, "Response time vs data size (PF vs NPF)", []string{
		"paper shape: penalty shrinks with size (121% at 1 MB, 4% at 25 MB); the paper omits the 50 MB point due to server queueing"}},
	{"fig5b", popularity, response, "Response time vs MU (PF vs NPF)", []string{
		"paper shape: virtually no penalty when disks sleep the whole trace (MU <= 100)"}},
	{"fig5c", delay, response, "Response time vs inter-arrival delay (PF vs NPF)", []string{
		"paper shape: penalty between ~16% and ~37% across delays, tracking the transition counts"}},
	{"fig5d", prefetchCount, response, "Response time vs number of files to prefetch (PF vs NPF)", []string{
		"paper shape: penalty falls as K grows (fewer misses, fewer wake-ups)"}},
	{"ext-disks", disksPerNode, energy, "Energy savings vs data disks per node (Section VII claim)", []string{
		"paper claim: savings grow as more disks are added to each storage node"}},
}

func init() {
	for _, f := range figures {
		registry[f.id] = func(p *planner) (plan, error) {
			return f.axis.sweep(p, !f.metric.pfOnly, func(pts []point) Table {
				return f.metric.table(f.id, f.title, f.axis.param, pts, f.notes)
			})
		}
	}
}

func fig6(p *planner) (plan, error) {
	tr, err := p.trace(p.web())
	if err != nil {
		return plan{}, err
	}
	return compareArms("fig6", "Energy on the Berkeley-web-equivalent trace (PF vs NPF)", tr,
		func(pf, npf cluster.Result) []string {
			return []string{
				"paper: 17% energy savings; all data disks stayed in standby for the whole trace",
				"workload substitution: Zipf-skewed hot set sized under K (see DESIGN.md)",
				fmt.Sprintf("measured savings: %s", fmtPct(pf.EnergySavingsVs(npf))),
			}
		}), nil
}

// CompareArms replays tr under PF and NPF on the default testbed and
// renders one row per arm, followed by notes(pf, npf): Fig. 6's table,
// and eevfsbench's on an external trace.
func CompareArms(o Options, id, title string, tr *trace.Trace, notes func(pf, npf cluster.Result) []string) (Table, error) {
	tables, err := execute(o, []plan{compareArms(id, title, tr, notes)})
	if err != nil {
		return Table{}, err
	}
	return tables[0], nil
}

// compareArms is CompareArms's plan.
func compareArms(id, title string, tr *trace.Trace, notes func(pf, npf cluster.Result) []string) plan {
	return plan{arms(id, cluster.DefaultTestbed(), tr), func(res []cluster.Result) Table {
		t := Table{
			ID:      id,
			Title:   title,
			Columns: []string{"arm", "energy (J)", "transitions", "hit ratio", "resp (s)"},
			Notes:   notes(res[0], res[1]),
		}
		for i, arm := range []string{"PF", "NPF"} {
			t.AddRow(arm, fmtJ(res[i].TotalEnergyJ), fmt.Sprint(res[i].Transitions),
				fmtPct(100*res[i].HitRatio()), fmtS(res[i].Response.Mean))
		}
		return t
	}}
}

// extHints compares the three wake/sleep policies on the MU=1000 workload:
// threshold timer only, hint-driven sleeps (paper default), and hints plus
// predictive prewake.
func extHints(p *planner) (plan, error) {
	tr, err := p.trace(p.synthetic())
	if err != nil {
		return plan{}, err
	}
	hints := cluster.DefaultTestbed()
	threshold, prewake := hints, hints
	threshold.Policy = cluster.Prefetch
	prewake.Policy = cluster.PrefetchPrewake
	t := Table{
		ID:    "ext-hints",
		Title: "Ablation: application hints and prewake (Section IV-C)",
		Columns: []string{
			"policy", "energy (J)", "transitions", "mean resp (s)", "p95 resp (s)",
		},
		Notes: []string{
			"hints sleep disks proactively at predicted window starts; prewake additionally hides the spin-up latency",
		},
	}
	runs := []run{
		{"threshold-only", threshold, tr}, {"hints", hints, tr},
		{"hints+prewake", prewake, tr}, {"npf", hints.NPF(), tr},
	}
	return rows(t, runs, func(r cluster.Result) []string {
		return []string{fmtJ(r.TotalEnergyJ), fmt.Sprint(r.Transitions), fmtS(r.Response.Mean), fmtS(r.Response.P95)}
	}), nil
}

// extBaselines compares EEVFS against the Section II comparator systems on
// the web-equivalent trace.
func extBaselines(p *planner) (plan, error) {
	tr, err := p.trace(p.web())
	if err != nil {
		return plan{}, err
	}
	base := cluster.DefaultTestbed()
	var runs []run
	for _, n := range baseline.All {
		cfg, err := baseline.Configure(base, n)
		if err != nil {
			return plan{}, err
		}
		runs = append(runs, run{string(n), cfg, tr})
	}
	return plan{runs, func(res []cluster.Result) Table {
		t := Table{
			ID:    "ext-baselines",
			Title: "Baseline comparison on the web-equivalent trace (Section II)",
			Columns: []string{
				"system", "energy (J)", "savings vs always-on", "transitions",
				"hit ratio", "mean resp (s)",
			},
		}
		alwaysOn := res[slices.Index(baseline.All, baseline.AlwaysOn)]
		for i, r := range res {
			t.AddRow(runs[i].label, fmtJ(r.TotalEnergyJ), fmtPct(r.EnergySavingsVs(alwaysOn)),
				fmt.Sprint(r.Transitions), fmtPct(100*r.HitRatio()), fmtS(r.Response.Mean))
		}
		return t
	}}, nil
}

// extStripe explores the paper's Section VII striping proposal: chunk
// sizes from "off" down to 2 MB on a large-file workload with partial
// coverage, trading response time against idle-window length.
func extStripe(p *planner) (plan, error) {
	w := p.synthetic()
	w.MeanSize = 25e6
	tr, err := p.trace(w)
	if err != nil {
		return plan{}, err
	}
	var labels []string
	var runs []run
	for _, chunk := range []int64{0, 10e6, 5e6, 2e6} {
		cfg := cluster.DefaultTestbed()
		cfg.StripeChunkBytes = chunk
		label := "off"
		if chunk > 0 {
			label = fmt.Sprintf("%.0fMB", float64(chunk)/1e6)
		}
		labels = append(labels, label)
		runs = append(runs, arms(label, cfg, tr)...)
	}
	return plan{runs, func(res []cluster.Result) Table {
		t := Table{
			ID:    "ext-stripe",
			Title: "Striping across data disks (Section VII future work)",
			Columns: []string{
				"chunk", "PF energy (J)", "PF resp (s)", "NPF energy (J)",
				"NPF resp (s)", "savings", "transitions",
			},
			Notes: []string{
				"25 MB files, MU=1000, K=70; chunks round-robin over the node's data disks",
				"striping parallelizes miss reads (lower response) but spreads residual load over more spindles",
			},
		}
		for i, label := range labels {
			pf, npf := res[2*i], res[2*i+1]
			t.AddRow(label, fmtJ(pf.TotalEnergyJ), fmtS(pf.Response.Mean),
				fmtJ(npf.TotalEnergyJ), fmtS(npf.Response.Mean),
				fmtPct(pf.EnergySavingsVs(npf)), fmt.Sprint(pf.Transitions))
		}
		return t
	}}, nil
}

// extDynamic contrasts the paper's one-shot prefetch with PRE-BUD-style
// dynamic re-prefetching on a workload whose hot set drifts.
func extDynamic(p *planner) (plan, error) {
	// Ten disjoint ~30-file hot sets: a one-shot top-70 prefetch covers a couple.
	w := workload.SyntheticConfig{NumFiles: 1000, NumRequests: p.requests(), MeanSize: 10 * 1e6, MU: 20, Phases: 10, InterArrival: 0.7, Seed: p.seed()}
	tr, err := p.trace(w)
	if err != nil {
		return plan{}, err
	}
	static := cluster.DefaultTestbed()
	static.Policy = cluster.Prefetch // threshold sleeping for a like-for-like contrast
	dynamic := static
	dynamic.ReprefetchEvery = 25
	t := Table{
		ID:    "ext-dynamic",
		Title: "Dynamic re-prefetching under popularity drift (PRE-BUD)",
		Columns: []string{
			"policy", "energy (J)", "hit ratio", "transitions", "mean resp (s)",
		},
		Notes: []string{
			fmt.Sprintf("drifting workload: %d phases over %d files, Poisson(%g) hot sets",
				w.Phases, w.NumFiles, w.MU),
			"dynamic = popularity recomputed from a sliding window every 25 requests, buffer refreshed in the background",
		},
	}
	runs := []run{{"npf", static.NPF(), tr}, {"static-prefetch", static, tr}, {"dynamic-prefetch", dynamic, tr}}
	return rows(t, runs, func(r cluster.Result) []string {
		return []string{fmtJ(r.TotalEnergyJ), fmtPct(100 * r.HitRatio()), fmt.Sprint(r.Transitions), fmtS(r.Response.Mean)}
	}), nil
}

// extWrites exercises the write-buffer area (Section III-C) on a mixed
// read/write workload.
func extWrites(p *planner) (plan, error) {
	w := p.synthetic()
	w.MU = 100
	w.WriteFraction = 0.3
	tr, err := p.trace(w)
	if err != nil {
		return plan{}, err
	}
	through := cluster.DefaultTestbed() // the default writes through
	buffered := through
	buffered.WriteBuffer = true
	t := Table{
		ID:    "ext-writes",
		Title: "Write buffering in buffer-disk free space (Section III-C)",
		Columns: []string{
			"policy", "energy (J)", "transitions", "write resp (s)",
			"buffered", "direct", "flushed (MB)",
		},
		Notes: []string{
			"30% writes, MU=100; buffered writes are acknowledged after the buffer-disk log append",
		},
	}
	runs := []run{{"write-buffer", buffered, tr}, {"write-through", through, tr}}
	return rows(t, runs, func(r cluster.Result) []string {
		return []string{fmtJ(r.TotalEnergyJ), fmt.Sprint(r.Transitions), fmtS(r.WriteResponse.Mean),
			fmt.Sprint(r.BufferedWrites), fmt.Sprint(r.DirectWrites),
			fmt.Sprintf("%.0f", float64(r.FlushedBytes)/1e6)}
	}), nil
}

// extThreshold sweeps the disk idle threshold (Table II fixes it at 5 s;
// the paper notes "the idle threshold can be increased to prevent disks
// from transitioning frequently"). The PF arm sleeps on the threshold,
// not on hints, so the threshold is actually the active policy.
func extThreshold(p *planner) (plan, error) {
	tr, err := p.trace(p.synthetic())
	if err != nil {
		return plan{}, err
	}
	runs := []run{{"npf", cluster.DefaultTestbed().NPF(), tr}}
	for _, th := range []float64{1, 2, 5, 10, 20, 60} {
		cfg := cluster.DefaultTestbed()
		cfg.Policy = cluster.Prefetch
		cfg.IdleThresholdSec = th
		runs = append(runs, run{fmt.Sprintf("%.0f", th), cfg, tr})
	}
	return plan{runs, func(res []cluster.Result) Table {
		t := Table{
			ID:    "ext-threshold",
			Title: "Idle-threshold sweep (Section VI-B's tuning remark)",
			Columns: []string{
				"threshold (s)", "energy (J)", "savings", "transitions",
				"worst wear (yr)", "mean resp (s)",
			},
			Notes: []string{
				"MU=1000, K=70, threshold policy (hints off); drive break-even is ~5.6 s",
				"shorter thresholds capture more idle time (this workload's residual gaps are long) at the cost of more transitions; very long thresholds give up most of the savings",
			},
		}
		for i, r := range res[1:] {
			t.AddRow(runs[i+1].label, fmtJ(r.TotalEnergyJ), fmtPct(r.EnergySavingsVs(res[0])),
				fmt.Sprint(r.Transitions), fmtWear(r, 2), fmtS(r.Response.Mean))
		}
		return t
	}}, nil
}

// clusterSize grows the cluster (the paper's Section I scalability
// claim: EEVFS "can provide significant energy savings ... with high I/O
// performance" as node counts grow), half Type 1 and half Type 2 nodes,
// on one fixed MU=100 workload.
var clusterSize = axis{
	param: "nodes", values: []float64{2, 4, 8, 16, 32}, label: "%.0f",
	workload: func(w *workload.SyntheticConfig, _ float64) { w.MU = 100 },
	config: func(c *cluster.Config, v float64) {
		n, types := int(v), c.Nodes
		c.Nodes = make([]cluster.NodeConfig, n)
		for i := range c.Nodes {
			c.Nodes[i] = types[0] // Type 1 template
			if i >= n/2 {
				c.Nodes[i] = types[len(types)-1] // Type 2 template
			}
		}
	},
}

func extScale(p *planner) (plan, error) {
	return clusterSize.sweep(p, true, func(pts []point) Table {
		t := Table{
			ID:    "ext-scale",
			Title: "Cluster scaling (Section I scalability claim)",
			Columns: []string{
				"nodes", "PF energy (J)", "NPF energy (J)", "savings",
				"PF resp (s)", "NPF resp (s)",
			},
			Notes: []string{
				"fixed 1000-request MU=100 workload spread over growing clusters (half Type 1, half Type 2)",
				"relative savings hold as the cluster grows; response improves with more spindles",
			},
		}
		for _, p := range pts {
			t.AddRow(p.label, fmtJ(p.pf.TotalEnergyJ), fmtJ(p.npf.TotalEnergyJ),
				fmtPct(p.pf.EnergySavingsVs(p.npf)), fmtS(p.pf.Response.Mean), fmtS(p.npf.Response.Mean))
		}
		return t
	})
}

// extBuffers sweeps the number of buffer disks per node (the BUD
// architecture's m parameter, Section I). Under a burst load the extra
// buffer spindles relieve the buffer-disk bottleneck; under the default
// paced load they only add idle draw — the paper's remark that "you would
// need many data disks to amortize the energy cost of adding an extra
// disk", seen from the m side.
func extBuffers(p *planner) (plan, error) {
	loads := []struct {
		name  string
		delay float64
	}{{"paced", 0.7}, {"burst", 0}}
	ms := []int{1, 2, 4}
	// Per load: the m=1 NPF baseline, then one run per m.
	var runs []run
	for _, load := range loads {
		w := p.synthetic()
		w.MU = 100
		w.InterArrival = load.delay
		tr, err := p.trace(w)
		if err != nil {
			return plan{}, err
		}
		runs = append(runs, run{load.name + " npf", cluster.DefaultTestbed().NPF(), tr})
		for _, m := range ms {
			cfg := cluster.DefaultTestbed()
			for i := range cfg.Nodes {
				cfg.Nodes[i].BufferDisks = m
			}
			runs = append(runs, run{fmt.Sprintf("%s m=%d", load.name, m), cfg, tr})
		}
	}
	return plan{runs, func(res []cluster.Result) Table {
		t := Table{
			ID:    "ext-buffers",
			Title: "Buffer disks per node (the BUD architecture's m, Section I)",
			Columns: []string{
				"m", "load", "energy (J)", "savings", "mean resp (s)", "p95 resp (s)",
			},
			Notes: []string{
				"MU=100 (fully covered); 'paced' = 700 ms inter-arrival, 'burst' = all requests at t=0",
				"savings are vs the m=1 NPF cluster: extra buffer spindles are pure idle draw unless the load is buffer-bound",
			},
		}
		for l, load := range loads {
			group := res[l*(len(ms)+1):]
			for i, m := range ms {
				r := group[i+1]
				t.AddRow(fmt.Sprint(m), load.name, fmtJ(r.TotalEnergyJ), fmtPct(r.EnergySavingsVs(group[0])),
					fmtS(r.Response.Mean), fmtS(r.Response.P95))
			}
		}
		return t
	}}, nil
}

package experiments

import (
	"fmt"
	"math"
	"sort"

	"eevfs/internal/baseline"
	"eevfs/internal/cluster"
	"eevfs/internal/disk"
	"eevfs/internal/workload"
)

// Runner regenerates one experiment artifact.
type Runner func(Options) (Table, error)

// Registry maps experiment ids (the per-experiment index in DESIGN.md) to
// their runners; fig3a to fig5d are added from the figures table.
var Registry = map[string]Runner{
	"tableI":             TableI,
	"tableII":            TableII,
	"fig6":               fig6,
	"ext-disks":          extDisks,
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
	ids := make([]string, 0, len(Registry))
	for id := range Registry {
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

// Run executes one experiment by id.
func Run(id string, o Options) (Table, error) {
	r, ok := Registry[id]
	if !ok {
		return Table{}, fmt.Errorf("experiments: unknown experiment %q", id)
	}
	return r(o)
}

// TableI renders the simulated testbed configuration (the stand-in for the
// paper's Table I).
func TableI(o Options) (Table, error) {
	cfg := o.testbed()
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
	type key struct {
		link  float64
		model string
		disks int
	}
	counts := map[key]int{}
	var order []key
	for _, n := range cfg.Nodes {
		k := key{n.LinkMbps, n.DataModel.Name, n.DataDisks}
		if counts[k] == 0 {
			order = append(order, k)
		}
		counts[k]++
	}
	for i, k := range order {
		m := disk.Catalog[k.model]
		t.AddRow(
			fmt.Sprintf("type %d", i+1),
			fmt.Sprintf("%d", counts[k]),
			fmt.Sprintf("%.0f", k.link),
			k.model,
			fmt.Sprintf("%.0f", m.BandwidthMBps),
			fmt.Sprintf("%d", k.disks),
			"1",
		)
	}
	return t, nil
}

// TableII renders the system and workload parameter space (the paper's
// Table II).
func TableII(Options) (Table, error) {
	t := Table{
		ID:      "tableII",
		Title:   "System and workload parameters",
		Columns: []string{"parameter", "values", "default"},
	}
	t.AddRow("Data Size (MB)", "1, 10, 25, 50", "10")
	t.AddRow("File Popularity Rate (MU)", "1, 10, 100, 1000", "1000")
	t.AddRow("Inter-arrival Delay (ms)", "0, 350, 700, 1000", "700")
	t.AddRow("Number of Files to Prefetch", "10, 40, 70, 100", "70")
	t.AddRow("Disk Idle Threshold (s)", "5", "5")
	t.AddRow("Total files", "1000", "1000")
	t.AddRow("Requests per trace", "1000", "1000")
	return t, nil
}

// figure is one panel of the paper's Figures 3 to 5: one of the four
// parameter sweeps rendered as one of the three PF-vs-NPF tables.
type figure struct {
	id    string
	sweep func(Options) (Sweep, error)
	table func(s Sweep, id, title string, notes ...string) Table
	title string
	notes []string
}

var figures = []figure{
	{"fig3a", DataSizeSweep, Sweep.EnergyTable, "Energy vs data size (PF vs NPF)", []string{
		"paper shape: PF wins at every size; reported gains 11% (1 MB) to 15% (50 MB); 50 MB inflates totals via queueing"}},
	{"fig3b", MUSweep, Sweep.EnergyTable, "Energy vs popularity rate MU (PF vs NPF)", []string{
		"paper shape: identical PF energy for MU <= 100 (K=70 covers everything, disks sleep whole trace); smaller gain at MU=1000"}},
	{"fig3c", DelaySweep, Sweep.EnergyTable, "Energy vs inter-arrival delay (PF vs NPF)", []string{
		"paper shape: savings grow with delay and level off near 700 ms",
		"absolute energy scales with the run's makespan; the paper's testbed replayed traces of similar wall-clock length across delays"}},
	{"fig3d", PrefetchCountSweep, Sweep.EnergyTable, "Energy vs number of files to prefetch (PF vs NPF)", []string{
		"paper shape: K=10 yields only ~3% savings; K >= 40 yields significant savings"}},
	{"fig4a", DataSizeSweep, Sweep.TransitionsTable, "Power-state transitions vs data size", []string{
		"paper shape: transitions decrease as data size increases"}},
	{"fig4b", MUSweep, Sweep.TransitionsTable, "Power-state transitions vs MU", []string{
		"paper shape: near-minimum transitions for MU <= 100 (one sleep per disk), hundreds at MU=1000"}},
	{"fig4c", DelaySweep, Sweep.TransitionsTable, "Power-state transitions vs inter-arrival delay", []string{
		"paper shape: transitions decrease as the delay increases (lighter load, longer windows)"}},
	{"fig4d", PrefetchCountSweep, Sweep.TransitionsTable, "Power-state transitions vs number of files to prefetch", []string{
		"paper shape: K=10 produces the most transitions of all tests (paper: 447) for the least savings"}},
	{"fig5a", DataSizeSweep, Sweep.ResponseTable, "Response time vs data size (PF vs NPF)", []string{
		"paper shape: penalty shrinks with size (121% at 1 MB, 4% at 25 MB); the paper omits the 50 MB point due to server queueing"}},
	{"fig5b", MUSweep, Sweep.ResponseTable, "Response time vs MU (PF vs NPF)", []string{
		"paper shape: virtually no penalty when disks sleep the whole trace (MU <= 100)"}},
	{"fig5c", DelaySweep, Sweep.ResponseTable, "Response time vs inter-arrival delay (PF vs NPF)", []string{
		"paper shape: penalty between ~16% and ~37% across delays, tracking the transition counts"}},
	{"fig5d", PrefetchCountSweep, Sweep.ResponseTable, "Response time vs number of files to prefetch (PF vs NPF)", []string{
		"paper shape: penalty falls as K grows (fewer misses, fewer wake-ups)"}},
}

func (f figure) run(o Options) (Table, error) {
	s, err := f.sweep(o)
	if err != nil {
		return Table{}, err
	}
	return f.table(s, f.id, f.title, f.notes...), nil
}

func init() {
	for _, f := range figures {
		Registry[f.id] = f.run
	}
}

func fig6(o Options) (Table, error) {
	s, err := BerkeleyWebSweep(o)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:    "fig6",
		Title: "Energy on the Berkeley-web-equivalent trace (PF vs NPF)",
		Columns: []string{
			"arm", "energy (J)", "transitions", "hit ratio", "resp (s)",
		},
		Notes: []string{
			"paper: 17% energy savings; all data disks stayed in standby for the whole trace",
			"workload substitution: Zipf-skewed hot set sized under K (see DESIGN.md)",
		},
	}
	p := s.Points[0]
	t.AddRow("PF", fmtJ(p.PF.TotalEnergyJ), fmt.Sprintf("%d", p.PF.Transitions),
		fmtPct(100*p.PF.HitRatio()), fmtS(p.PF.Response.Mean))
	t.AddRow("NPF", fmtJ(p.NPF.TotalEnergyJ), fmt.Sprintf("%d", p.NPF.Transitions),
		fmtPct(100*p.NPF.HitRatio()), fmtS(p.NPF.Response.Mean))
	t.Notes = append(t.Notes,
		fmt.Sprintf("measured savings: %s", fmtPct(p.PF.EnergySavingsVs(p.NPF))))
	return t, nil
}

func extDisks(o Options) (Table, error) {
	s, err := DisksPerNodeSweep(o)
	if err != nil {
		return Table{}, err
	}
	t := s.EnergyTable("ext-disks", "Energy savings vs data disks per node (Section VII claim)",
		"paper claim: savings grow as more disks are added to each storage node",
	)
	return t, nil
}

// extHints compares the three wake/sleep policies on the MU=1000 workload:
// threshold timer only, hint-driven sleeps (paper default), and hints plus
// predictive prewake.
func extHints(o Options) (Table, error) {
	w := o.synthetic()
	tr, err := workload.Synthetic(w)
	if err != nil {
		return Table{}, err
	}
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
	run := func(label string, mod func(*cluster.Config)) error {
		cfg := o.testbed()
		mod(&cfg)
		res, err := cluster.Run(cfg, tr)
		if err != nil {
			return err
		}
		t.AddRow(label, fmtJ(res.TotalEnergyJ), fmt.Sprintf("%d", res.Transitions),
			fmtS(res.Response.Mean), fmtS(res.Response.P95))
		return nil
	}
	if err := run("threshold-only", func(c *cluster.Config) { c.Hints = false }); err != nil {
		return Table{}, err
	}
	if err := run("hints", func(c *cluster.Config) {}); err != nil {
		return Table{}, err
	}
	if err := run("hints+prewake", func(c *cluster.Config) { c.Prewake = true }); err != nil {
		return Table{}, err
	}
	if err := run("npf", func(c *cluster.Config) { *c = c.NPF() }); err != nil {
		return Table{}, err
	}
	return t, nil
}

// extBaselines compares EEVFS against the Section II comparator systems on
// the web-equivalent trace.
func extBaselines(o Options) (Table, error) {
	w := workload.DefaultBerkeleyWeb()
	w.NumRequests = o.requests()
	w.Seed = o.seed()
	tr, err := workload.BerkeleyWeb(w)
	if err != nil {
		return Table{}, err
	}
	comps, err := baseline.RunAll(o.testbed(), tr)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:    "ext-baselines",
		Title: "Baseline comparison on the web-equivalent trace (Section II)",
		Columns: []string{
			"system", "energy (J)", "savings vs always-on", "transitions",
			"hit ratio", "mean resp (s)",
		},
	}
	ao, _ := baseline.Find(comps, baseline.AlwaysOn)
	for _, c := range comps {
		t.AddRow(string(c.Name), fmtJ(c.Result.TotalEnergyJ),
			fmtPct(c.Result.EnergySavingsVs(ao.Result)),
			fmt.Sprintf("%d", c.Result.Transitions),
			fmtPct(100*c.Result.HitRatio()),
			fmtS(c.Result.Response.Mean))
	}
	return t, nil
}

// extStripe explores the paper's Section VII striping proposal: chunk
// sizes from "off" down to 2 MB on a large-file workload with partial
// coverage, trading response time against idle-window length.
func extStripe(o Options) (Table, error) {
	w := o.synthetic()
	w.MeanSize = 25e6
	tr, err := workload.Synthetic(w)
	if err != nil {
		return Table{}, err
	}
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
	for _, chunk := range []int64{0, 10e6, 5e6, 2e6} {
		cfg := o.testbed()
		cfg.StripeChunkBytes = chunk
		pf, err := cluster.Run(cfg, tr)
		if err != nil {
			return Table{}, err
		}
		npf, err := cluster.Run(cfg.NPF(), tr)
		if err != nil {
			return Table{}, err
		}
		label := "off"
		if chunk > 0 {
			label = fmt.Sprintf("%.0fMB", float64(chunk)/1e6)
		}
		t.AddRow(label, fmtJ(pf.TotalEnergyJ), fmtS(pf.Response.Mean),
			fmtJ(npf.TotalEnergyJ), fmtS(npf.Response.Mean),
			fmtPct(pf.EnergySavingsVs(npf)), fmt.Sprintf("%d", pf.Transitions))
	}
	return t, nil
}

// extDynamic contrasts the paper's one-shot prefetch with PRE-BUD-style
// dynamic re-prefetching on a workload whose hot set drifts.
func extDynamic(o Options) (Table, error) {
	// Ten disjoint ~30-file hot sets: a one-shot top-70 prefetch covers a couple.
	w := workload.DriftConfig{NumFiles: 1000, NumRequests: o.requests(), MeanSize: 10 * 1e6, MU: 20, Phases: 10, InterArrival: 0.7, Seed: o.seed()}
	tr, err := workload.Drift(w)
	if err != nil {
		return Table{}, err
	}
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
	run := func(label string, mod func(*cluster.Config)) error {
		cfg := o.testbed()
		cfg.Hints = false // threshold sleeping for a like-for-like contrast
		mod(&cfg)
		res, err := cluster.Run(cfg, tr)
		if err != nil {
			return err
		}
		t.AddRow(label, fmtJ(res.TotalEnergyJ), fmtPct(100*res.HitRatio()),
			fmt.Sprintf("%d", res.Transitions), fmtS(res.Response.Mean))
		return nil
	}
	if err := run("npf", func(c *cluster.Config) { *c = c.NPF() }); err != nil {
		return Table{}, err
	}
	if err := run("static-prefetch", func(c *cluster.Config) {}); err != nil {
		return Table{}, err
	}
	if err := run("dynamic-prefetch", func(c *cluster.Config) { c.ReprefetchEvery = 25 }); err != nil {
		return Table{}, err
	}
	return t, nil
}

// extWrites exercises the write-buffer area (Section III-C) on a mixed
// read/write workload.
func extWrites(o Options) (Table, error) {
	w := o.synthetic()
	w.MU = 100
	w.WriteFraction = 0.3
	tr, err := workload.Synthetic(w)
	if err != nil {
		return Table{}, err
	}
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
	run := func(label string, wb bool) error {
		cfg := o.testbed()
		cfg.WriteBuffer = wb
		res, err := cluster.Run(cfg, tr)
		if err != nil {
			return err
		}
		t.AddRow(label, fmtJ(res.TotalEnergyJ), fmt.Sprintf("%d", res.Transitions),
			fmtS(res.WriteResponse.Mean),
			fmt.Sprintf("%d", res.BufferedWrites),
			fmt.Sprintf("%d", res.DirectWrites),
			fmt.Sprintf("%.0f", float64(res.FlushedBytes)/1e6))
		return nil
	}
	if err := run("write-buffer", true); err != nil {
		return Table{}, err
	}
	if err := run("write-through", false); err != nil {
		return Table{}, err
	}
	return t, nil
}

// extThreshold sweeps the disk idle threshold (Table II fixes it at 5 s;
// the paper notes "the idle threshold can be increased to prevent disks
// from transitioning frequently"). Hints are disabled so the threshold is
// actually the active policy.
func extThreshold(o Options) (Table, error) {
	tr, err := workload.Synthetic(o.synthetic())
	if err != nil {
		return Table{}, err
	}
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
	npf, err := cluster.Run(o.testbed().NPF(), tr)
	if err != nil {
		return Table{}, err
	}
	for _, th := range []float64{1, 2, 5, 10, 20, 60} {
		cfg := o.testbed()
		cfg.Hints = false
		cfg.IdleThresholdSec = th
		res, err := cluster.Run(cfg, tr)
		if err != nil {
			return Table{}, err
		}
		wear := res.WorstWearYears(disk.RatedStartStopCycles)
		wearStr := "inf"
		if !math.IsInf(wear, 1) {
			wearStr = fmt.Sprintf("%.2f", wear)
		}
		t.AddRow(fmt.Sprintf("%.0f", th), fmtJ(res.TotalEnergyJ),
			fmtPct(res.EnergySavingsVs(npf)),
			fmt.Sprintf("%d", res.Transitions), wearStr, fmtS(res.Response.Mean))
	}
	return t, nil
}

// extScale grows the cluster (the paper's Section I scalability claim:
// EEVFS "can provide significant energy savings ... with high I/O
// performance" as node counts grow) while holding the workload fixed.
func extScale(o Options) (Table, error) {
	w := o.synthetic()
	w.MU = 100
	tr, err := workload.Synthetic(w)
	if err != nil {
		return Table{}, err
	}
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
	base := o.testbed()
	for _, nodes := range []int{2, 4, 8, 16, 32} {
		cfg := base
		cfg.Nodes = make([]cluster.NodeConfig, nodes)
		for i := range cfg.Nodes {
			cfg.Nodes[i] = base.Nodes[0] // Type 1 template
			if i >= nodes/2 {
				cfg.Nodes[i] = base.Nodes[len(base.Nodes)-1] // Type 2 template
			}
		}
		pf, err := cluster.Run(cfg, tr)
		if err != nil {
			return Table{}, err
		}
		npf, err := cluster.Run(cfg.NPF(), tr)
		if err != nil {
			return Table{}, err
		}
		t.AddRow(fmt.Sprintf("%d", nodes), fmtJ(pf.TotalEnergyJ), fmtJ(npf.TotalEnergyJ),
			fmtPct(pf.EnergySavingsVs(npf)), fmtS(pf.Response.Mean), fmtS(npf.Response.Mean))
	}
	return t, nil
}

// extBuffers sweeps the number of buffer disks per node (the BUD
// architecture's m parameter, Section I). Under a burst load the extra
// buffer spindles relieve the buffer-disk bottleneck; under the default
// paced load they only add idle draw — the paper's remark that "you would
// need many data disks to amortize the energy cost of adding an extra
// disk", seen from the m side.
func extBuffers(o Options) (Table, error) {
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
	for _, load := range []struct {
		name  string
		delay float64
	}{{"paced", 0.7}, {"burst", 0}} {
		w := o.synthetic()
		w.MU = 100
		w.InterArrival = load.delay
		tr, err := workload.Synthetic(w)
		if err != nil {
			return Table{}, err
		}
		npf, err := cluster.Run(o.testbed().NPF(), tr)
		if err != nil {
			return Table{}, err
		}
		for _, m := range []int{1, 2, 4} {
			cfg := o.testbed()
			for i := range cfg.Nodes {
				cfg.Nodes[i].BufferDisks = m
			}
			res, err := cluster.Run(cfg, tr)
			if err != nil {
				return Table{}, err
			}
			t.AddRow(fmt.Sprintf("%d", m), load.name, fmtJ(res.TotalEnergyJ),
				fmtPct(res.EnergySavingsVs(npf)), fmtS(res.Response.Mean),
				fmtS(res.Response.P95))
		}
	}
	return t, nil
}

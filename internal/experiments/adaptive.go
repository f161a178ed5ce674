package experiments

import (
	"fmt"

	"eevfs/internal/adaptive"
	"eevfs/internal/cluster"
	"eevfs/internal/workload"
)

// driftAdaptiveParams sizes the churn detector to the drift workload:
// the access window spans half a popularity phase (so a phase change
// floods the window with misses quickly) and the cooldown an eighth of
// the window. Every other knob keeps its production default.
func driftAdaptiveParams(w workload.SyntheticConfig) *adaptive.Params {
	p := adaptive.Defaults()
	if w.Phases > 0 {
		if half := w.NumRequests / w.Phases / 2; half < p.ChurnWindow {
			p.ChurnWindow = half
		}
	}
	if p.ChurnWindow < 12 {
		p.ChurnWindow = 12
	}
	p.ChurnCooldown = p.ChurnWindow / 8
	return &p
}

// adaptiveTable runs npf / static-prefetch / adaptive on one drift
// workload and renders a row per arm: the three-way comparison the drift
// and flash experiments are built from. Static prefetching keeps its
// offline whole-trace popularity ranking and threshold sleeping (hints
// off) so the contrast isolates the online policy.
func adaptiveTable(p *planner, w workload.SyntheticConfig, id, title string, notes ...string) (plan, error) {
	tr, err := p.trace(w)
	if err != nil {
		return plan{}, err
	}
	static := cluster.DefaultTestbed()
	static.Policy = cluster.Prefetch
	online := static.AdaptiveArm()
	online.AdaptiveParams = driftAdaptiveParams(w)
	t := Table{
		ID:    id,
		Title: title,
		Columns: []string{
			"policy", "energy (J)", "hit ratio", "transitions",
			"reprefetches", "mean resp (s)",
		},
		Notes: notes,
	}
	runs := []run{{"npf", static.NPF(), tr}, {"static-prefetch", static, tr}, {"adaptive", online, tr}}
	return rows(t, runs, func(r cluster.Result) []string {
		return []string{fmtJ(r.TotalEnergyJ), fmtPct(100 * r.HitRatio()), fmt.Sprint(r.Transitions),
			fmt.Sprint(r.AdaptiveReprefetches), fmtS(r.Response.Mean)}
	}), nil
}

// extAdaptiveDrift is the headline adaptive-policy experiment: under
// strong popularity drift the online arm beats not only NPF but the
// static prefetcher, despite the latter's offline whole-trace ranking.
// The drift dynamics (phase length versus churn window, hot-set width
// versus prefetch depth) do not shrink meaningfully, so this experiment
// pins the workload scale and ignores Options.Requests, like the tables.
func extAdaptiveDrift(p *planner) (plan, error) {
	w := workload.DefaultDrift()
	w.Seed = p.seed()
	return adaptiveTable(p, w, "ext-adaptive-drift", "Online adaptive policy under popularity drift",
		fmt.Sprintf("drift workload: %d phases over %d files, Poisson(%g) hot sets, %d requests (fixed scale)",
			w.Phases, w.NumFiles, w.MU, w.NumRequests),
		"adaptive = EWMA-adapted spin-down thresholds + churn-triggered reprefetch, no future knowledge",
		"static-prefetch ranks by offline whole-trace counts; with 16 disjoint hot sets its top-70 spreads thin",
	)
}

// extAdaptiveFlash adds a flash crowd to the drift workload: midway
// through the trace, half of all requests are redirected to eight files
// nobody had touched before. The offline ranking sees the flash in its
// whole-trace counts (an oracle advantage a real deployment would not
// have); the adaptive arm finds it online via churn.
func extAdaptiveFlash(p *planner) (plan, error) {
	w := workload.DefaultDrift()
	w.Seed = p.seed()
	w.FlashStartFrac = 0.5
	w.FlashDurFrac = 0.2
	w.FlashBoost = 0.5
	w.FlashFiles = 8
	return adaptiveTable(p, w, "ext-adaptive-flash", "Flash crowd atop popularity drift",
		fmt.Sprintf("flash window [%.0f%%, %.0f%%) of the trace redirects %.0f%% of requests to %d files",
			100*w.FlashStartFrac, 100*(w.FlashStartFrac+w.FlashDurFrac), 100*w.FlashBoost, w.FlashFiles),
		"static-prefetch's offline counts include the flash (oracle advantage); adaptive reacts online",
	)
}

// extAdaptiveChurn sweeps the churn detector's miss-fraction trigger on
// the drift workload: too eager wastes fetch energy on noise, too
// reluctant leaves the buffers serving the previous phase.
func extAdaptiveChurn(p *planner) (plan, error) {
	w := workload.DefaultDrift()
	w.Seed = p.seed()
	tr, err := p.trace(w)
	if err != nil {
		return plan{}, err
	}
	runs := []run{{"npf", cluster.DefaultTestbed().NPF(), tr}}
	for _, th := range []float64{0.1, 0.2, 0.3, 0.5, 0.8} {
		cfg := cluster.DefaultTestbed().AdaptiveArm()
		cfg.AdaptiveParams = driftAdaptiveParams(w)
		cfg.AdaptiveParams.ChurnThreshold = th
		runs = append(runs, run{fmt.Sprintf("%.1f", th), cfg, tr})
	}
	return plan{runs, func(res []cluster.Result) Table {
		t := Table{
			ID:    "ext-adaptive-churn",
			Title: "Churn-trigger sensitivity (re-prefetch miss-fraction threshold)",
			Columns: []string{
				"threshold", "energy (J)", "savings vs npf", "hit ratio",
				"reprefetches", "prefetched files",
			},
			Notes: []string{
				"drift workload as in ext-adaptive-drift; only ChurnThreshold varies",
				"each re-prefetch is bank-gated: it spends only energy the sleeps already saved",
			},
		}
		for i, r := range res[1:] {
			t.AddRow(runs[i+1].label, fmtJ(r.TotalEnergyJ), fmtPct(r.EnergySavingsVs(res[0])),
				fmtPct(100*r.HitRatio()), fmt.Sprint(r.AdaptiveReprefetches), fmt.Sprint(r.PrefetchedFiles))
		}
		return t
	}}, nil
}

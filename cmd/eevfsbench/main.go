// Command eevfsbench regenerates the paper's tables and figures from the
// EEVFS cluster simulator. With no flags it runs every experiment in
// DESIGN.md's per-experiment index and prints aligned text tables.
//
// Usage:
//
//	eevfsbench                     # run everything
//	eevfsbench -exp fig3a          # one experiment
//	eevfsbench -exp fig3a,fig4a    # several
//	eevfsbench -markdown           # markdown output (EXPERIMENTS.md body)
//	eevfsbench -plot               # ASCII bar charts for the figures
//	eevfsbench -requests 200       # shrink traces for a quick pass
//	eevfsbench -list               # list experiment ids
//	eevfsbench -trace t.txt        # PF vs NPF on an external trace file
//	eevfsbench -chrome-trace o.json  # export one PF run's timeline for Perfetto
//
// The live stack's throughput is the benchmark's, not this command's:
// `go run ./bench --workload stream-large` measures the streaming plane.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"eevfs/internal/cluster"
	"eevfs/internal/experiments"
	"eevfs/internal/telemetry"
	"eevfs/internal/trace"
	"eevfs/internal/workload"
)

// runTraceFile simulates an external trace under PF and NPF on the
// default testbed and prints the headline comparison.
func runTraceFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.Parse(f)
	if err != nil {
		return err
	}
	cfg := cluster.DefaultTestbed()
	pf, err := cluster.Run(cfg, tr)
	if err != nil {
		return err
	}
	npf, err := cluster.Run(cfg.NPF(), tr)
	if err != nil {
		return err
	}
	fmt.Printf("trace: %d files, %d requests, %.0f s span\n",
		tr.NumFiles(), len(tr.Records), tr.Duration())
	fmt.Printf("%-8s %14s %12s %14s %12s\n", "", "energy (J)", "transitions", "mean resp (s)", "hit ratio")
	fmt.Printf("%-8s %14.0f %12d %14.3f %11.1f%%\n", "PF", pf.TotalEnergyJ, pf.Transitions, pf.Response.Mean, 100*pf.HitRatio())
	fmt.Printf("%-8s %14.0f %12d %14.3f %11.1f%%\n", "NPF", npf.TotalEnergyJ, npf.Transitions, npf.Response.Mean, 100*npf.HitRatio())
	fmt.Printf("savings: %.1f%%   response penalty: %.1f%%\n",
		pf.EnergySavingsVs(npf), pf.ResponsePenaltyVs(npf))
	return nil
}

// exportChromeTrace simulates one PF run on the default testbed — against
// an external trace file or the default synthetic workload — with the
// event journal attached, and writes the timeline as Chrome trace-event
// JSON loadable in ui.perfetto.dev or chrome://tracing.
func exportChromeTrace(out, traceIn string, requests int, seed uint64) error {
	var tr *trace.Trace
	var err error
	if traceIn != "" {
		f, err := os.Open(traceIn)
		if err != nil {
			return err
		}
		defer f.Close()
		tr, err = trace.Parse(f)
		if err != nil {
			return err
		}
	} else {
		wcfg := workload.DefaultSynthetic()
		if requests > 0 {
			wcfg.NumRequests = requests
		}
		if seed != 0 {
			wcfg.Seed = seed
		}
		tr, err = workload.Synthetic(wcfg)
		if err != nil {
			return err
		}
	}

	cfg := cluster.DefaultTestbed()
	jour := &telemetry.Journal{}
	cfg.Journal = jour
	res, err := cluster.Run(cfg, tr)
	if err != nil {
		return err
	}

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTrace(f, jour.Events(), res.MakespanSec); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d journal events (%d power transitions, %.0f s makespan) to %s\n",
		jour.Len(), res.Transitions, res.MakespanSec, out)
	return nil
}

func main() {
	var (
		exp      = flag.String("exp", "", "comma-separated experiment ids (default: all)")
		markdown = flag.Bool("markdown", false, "emit markdown instead of aligned text")
		plot     = flag.Bool("plot", false, "render the figures as ASCII bar charts")
		requests = flag.Int("requests", 0, "override trace length (default 1000)")
		seed     = flag.Uint64("seed", 0, "override workload seed (default 1)")
		parallel = flag.Int("parallel", 0, "simulation workers: 0 sequential, -1 GOMAXPROCS, n>1 a fixed pool (results are byte-identical)")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		traceIn  = flag.String("trace", "", "run PF vs NPF on a trace file (eevfs-trace/1 format) and exit")
		chromeO  = flag.String("chrome-trace", "", "simulate one PF run and write its timeline as Chrome trace-event JSON to this file")
	)
	flag.Parse()

	if *chromeO != "" {
		if err := exportChromeTrace(*chromeO, *traceIn, *requests, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "eevfsbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *traceIn != "" {
		if err := runTraceFile(*traceIn); err != nil {
			fmt.Fprintf(os.Stderr, "eevfsbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	ids := experiments.IDs()
	if *plot && *exp == "" {
		ids = experiments.PlottableIDs()
	}
	if *exp != "" {
		ids = strings.Split(*exp, ",")
	}
	opts := experiments.Options{Requests: *requests, Seed: *seed, Workers: *parallel}

	if *plot {
		for _, id := range ids {
			id = strings.TrimSpace(id)
			chart, err := experiments.Plot(id, opts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "eevfsbench: %v\n", err)
				os.Exit(1)
			}
			if err := chart.Render(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "eevfsbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Println()
		}
		return
	}

	// RunMany fans the experiments over opts.Workers (sequentially for
	// the default Workers=0) and returns the tables in id order, so the
	// printed output is identical regardless of -parallel.
	tables, err := experiments.RunMany(ids, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "eevfsbench: %v\n", err)
		os.Exit(1)
	}
	for i, t := range tables {
		var renderErr error
		if *markdown {
			renderErr = t.Markdown(os.Stdout)
		} else {
			renderErr = t.Render(os.Stdout)
			fmt.Println()
		}
		if renderErr != nil {
			fmt.Fprintf(os.Stderr, "eevfsbench: rendering %s: %v\n", strings.TrimSpace(ids[i]), renderErr)
			os.Exit(1)
		}
	}
}

// Command eevfsbench regenerates the paper's tables, and its figures as
// tables, from the EEVFS cluster simulator. With no flags it runs every
// experiment in DESIGN.md's per-experiment index and prints aligned text
// tables.
//
// Usage:
//
//	eevfsbench                     # run everything
//	eevfsbench -exp fig3a          # one experiment
//	eevfsbench -exp fig3a,fig4a    # several
//	eevfsbench -markdown           # markdown output (EXPERIMENTS.md body)
//	eevfsbench -requests 200       # shrink traces for a quick pass
//	eevfsbench -list               # list experiment ids
//	eevfsbench -trace t.txt        # Fig. 6's PF-vs-NPF table on an external trace file
//	eevfsbench -chrome-trace o.json  # export one PF run's timeline for Perfetto
//
// The live stack's throughput is the benchmark's, not this command's:
// `go run ./bench --workload stream-large` measures the streaming plane.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"eevfs/internal/cluster"
	"eevfs/internal/experiments"
	"eevfs/internal/telemetry"
	"eevfs/internal/trace"
	"eevfs/internal/workload"
)

// readTrace parses an eevfs-trace/1 file.
func readTrace(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Parse(f)
}

// runTraceFile simulates an external trace under PF and NPF on the
// default testbed and writes the comparison as Fig. 6 renders it.
func runTraceFile(w io.Writer, path string, markdown bool) error {
	tr, err := readTrace(path)
	if err != nil {
		return err
	}
	t, err := experiments.CompareArms(experiments.Options{}, "trace", "PF vs NPF on "+path, tr,
		func(pf, npf cluster.Result) []string {
			return []string{
				fmt.Sprintf("trace: %d files, %d requests, %.0f s span", tr.NumFiles(), len(tr.Records), tr.Duration()),
				fmt.Sprintf("savings: %.1f%%", pf.EnergySavingsVs(npf)),
				fmt.Sprintf("response penalty: %.1f%%", pf.ResponsePenaltyVs(npf)),
			}
		})
	if err != nil {
		return err
	}
	if markdown {
		return t.Markdown(w)
	}
	return t.Render(w)
}

// writeTables runs the experiments — RunMany simulates each distinct run
// of them all once, over opts.Workers workers, and returns the tables in
// id order, so the output is identical regardless of -parallel — and
// writes them as aligned text, each followed by a blank line, or as
// markdown sections.
func writeTables(w io.Writer, ids []string, opts experiments.Options, markdown bool) error {
	tables, err := experiments.RunMany(ids, opts)
	if err != nil {
		return err
	}
	for _, t := range tables {
		if markdown {
			err = t.Markdown(w)
		} else {
			err = t.Render(w)
			fmt.Fprintln(w)
		}
		if err != nil {
			return err
		}
	}
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
		if tr, err = readTrace(traceIn); err != nil {
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
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "eevfsbench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp      = flag.String("exp", "", "comma-separated experiment ids (default: all)")
		markdown = flag.Bool("markdown", false, "emit markdown instead of aligned text")
		requests = flag.Int("requests", 0, "override trace length (default 1000)")
		seed     = flag.Uint64("seed", 0, "override workload seed (default 1)")
		parallel = flag.Int("parallel", 0, "workers for the experiments' simulations: 0 sequential, -1 GOMAXPROCS, n>1 a fixed pool (results are byte-identical)")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		traceIn  = flag.String("trace", "", "run PF vs NPF on a trace file (eevfs-trace/1 format) and exit")
		chromeO  = flag.String("chrome-trace", "", "simulate one PF run and write its timeline as Chrome trace-event JSON to this file")
	)
	flag.Parse()

	switch {
	case *chromeO != "":
		return exportChromeTrace(*chromeO, *traceIn, *requests, *seed)
	case *traceIn != "":
		return runTraceFile(os.Stdout, *traceIn, *markdown)
	case *list:
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return nil
	}

	ids := experiments.IDs()
	if *exp != "" {
		ids = strings.Split(*exp, ",")
	}
	opts := experiments.Options{Requests: *requests, Seed: *seed, Workers: *parallel}
	return writeTables(os.Stdout, ids, opts, *markdown)
}

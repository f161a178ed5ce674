// Command benchdiff is the judge of the performance gate (DESIGN.md §16).
// It reads the saved outputs of `go run ./bench --workload W --trace 0`
// from the parent commit and from the change, and holds every end-to-end
// metric of every workload to the bound BENCHMARK.json fixes for it.
//
//	benchdiff BENCHMARK.json parent.txt change.txt
//
// Each file is any number of bench outputs, one after the other, in the
// order the runs were made; the i-th run of a workload on one side is
// paired with the i-th on the other. Of each run only the `== <workload>`
// header and the closing JSON line are read. A row's verdict is `worse`
// when the change's median is worse than the parent's by more than the
// bound, `unresolved` when it is not but one side's quartile spread is
// wider than the bound and not every run of the change beats every run of
// the parent, else `ok`. The exit status is 1 on any worse row, any run
// reporting correct:false, or a workload whose failed/attempted share
// rose; 2 when the two sides do not hold the same runs or a run lacks a
// metric, so a missing measurement is never a pass.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchmark is what the gate reads of BENCHMARK.json.
type benchmark struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"` // "lower" or "higher"
		Bound  float64 `json:"bound"`  // relative worsening of the median that counts as a regression
	} `json:"end_to_end"`
}

// result is the JSON line that closes one bench run.
type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// parseRuns reads a file of concatenated bench outputs into the runs of
// each workload, in file order.
func parseRuns(path string) (map[string][]result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	runs := make(map[string][]result)
	open := "" // workload whose header was read and whose result line is still due
	for _, line := range strings.Split(string(raw), "\n") {
		switch {
		case strings.HasPrefix(line, "== "):
			if open != "" {
				return nil, fmt.Errorf("%s: run of %s ends without a result line", path, open)
			}
			fields := strings.Fields(line)
			if len(fields) < 2 {
				return nil, fmt.Errorf("%s: header %q names no workload", path, line)
			}
			open = fields[1]
		case strings.HasPrefix(line, "{") && open != "":
			var res result
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				return nil, fmt.Errorf("%s: result line of %s: %w", path, open, err)
			}
			runs[open] = append(runs[open], res)
			open = ""
		}
	}
	if open != "" {
		return nil, fmt.Errorf("%s: run of %s ends without a result line", path, open)
	}
	return runs, nil
}

// summary is what one side's runs of one metric come to. spread is the
// distance between the quartiles as a share of the median.
type summary struct{ min, median, max, spread float64 }

func summarize(runs []result, metric string) (summary, error) {
	s := make([]float64, len(runs))
	for i, r := range runs {
		m, ok := r.Metrics[metric]
		if !ok {
			return summary{}, fmt.Errorf("run %d lacks %s", i+1, metric)
		}
		s[i] = m.Value
	}
	sort.Float64s(s)
	// quantile interpolates linearly between the order statistics.
	quantile := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 == len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	med := quantile(0.5)
	if med == 0 {
		return summary{}, fmt.Errorf("the median of %s is 0", metric)
	}
	return summary{s[0], med, s[len(s)-1], (quantile(0.75) - quantile(0.25)) / med}, nil
}

// compare writes the verdict table and returns what failed the gate; err
// is for inputs that cannot be judged at all.
func compare(b benchmark, parent, change map[string][]result, w io.Writer) (failures []string, err error) {
	known := make(map[string]bool)
	for _, wl := range b.Workloads {
		known[wl.Name] = true
	}
	for _, side := range []map[string][]result{parent, change} {
		for name := range side {
			if !known[name] {
				return nil, fmt.Errorf("workload %s is not in the benchmark file", name)
			}
			if len(parent[name]) != len(change[name]) {
				return nil, fmt.Errorf("workload %s: %d runs of the parent, %d of the change",
					name, len(parent[name]), len(change[name]))
			}
		}
	}
	if len(parent) == 0 {
		return nil, fmt.Errorf("no runs to compare")
	}
	fail := func(format string, args ...any) { failures = append(failures, fmt.Sprintf(format, args...)) }

	fmt.Fprintf(w, "%-13s %-14s %12s %12s %8s %7s %7s %5s  %s\n",
		"workload", "metric", "parent", "change", "delta", "bound", "spread", "wins", "verdict")
	for _, wl := range b.Workloads { // BENCHMARK.json's order
		p, c := parent[wl.Name], change[wl.Name]
		if len(p) == 0 {
			continue
		}
		for _, m := range b.EndToEnd {
			ps, err := summarize(p, m.Name)
			if err != nil {
				return nil, fmt.Errorf("workload %s, parent: %w", wl.Name, err)
			}
			cs, err := summarize(c, m.Name)
			if err != nil {
				return nil, fmt.Errorf("workload %s, change: %w", wl.Name, err)
			}
			// worsening is the relative move of the median in the metric's
			// bad direction: up where lower is better, down where higher is.
			sign, everyRunBetter := 1.0, cs.max < ps.min
			if m.Better == "higher" {
				sign, everyRunBetter = -1, cs.min > ps.max
			}
			worsening := sign * (cs.median - ps.median) / ps.median
			wins := 0
			for i := range p {
				if sign*(c[i].Metrics[m.Name].Value-p[i].Metrics[m.Name].Value) < 0 {
					wins++
				}
			}
			verdict := "ok"
			if worsening > m.Bound {
				verdict = "worse"
				fail("%s %s is worse: median %.5g -> %.5g %s, %.1f%% in the wrong direction (bound %.0f%%)",
					wl.Name, m.Name, ps.median, cs.median, m.Unit, 100*worsening, 100*m.Bound)
			} else if math.Max(ps.spread, cs.spread) > m.Bound && !everyRunBetter {
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-13s %-14s %12.5g %12.5g %+7.1f%% %6.0f%% %6.1f%% %3d/%d  %s\n",
				wl.Name, m.Name, ps.median, cs.median, 100*(cs.median-ps.median)/ps.median,
				100*m.Bound, 100*ps.spread, wins, len(p), verdict)
		}
		var pa, pf, ca, cf int64
		for i := range p {
			pa, pf, ca, cf = pa+p[i].Attempted, pf+p[i].Failed, ca+c[i].Attempted, cf+c[i].Failed
			if !p[i].Correct {
				fail("%s: run %d of the parent reports correct:false", wl.Name, i+1)
			}
			if !c[i].Correct {
				fail("%s: run %d of the change reports correct:false", wl.Name, i+1)
			}
		}
		verdict := "ok"
		if float64(cf)/float64(ca) > float64(pf)/float64(pa) {
			verdict = "worse"
			fail("%s: failed share rose from %d/%d to %d/%d", wl.Name, pf, pa, cf, ca)
		}
		fmt.Fprintf(w, "%-13s %-14s %12s %12s %33s%s\n", wl.Name, "failed/tried",
			fmt.Sprintf("%d/%d", pf, pa), fmt.Sprintf("%d/%d", cf, ca), "", verdict)
	}
	return failures, nil
}

// gate loads the three files and judges them.
func gate(benchFile, parentFile, changeFile string, stdout io.Writer) (failures []string, err error) {
	var b benchmark
	raw, err := os.ReadFile(benchFile)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", benchFile, err)
	}
	parent, err := parseRuns(parentFile)
	if err != nil {
		return nil, err
	}
	change, err := parseRuns(changeFile)
	if err != nil {
		return nil, err
	}
	return compare(b, parent, change, stdout)
}

// run is main without the exit: it returns the process's exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) != 3 {
		fmt.Fprintln(stderr, "usage: benchdiff BENCHMARK.json parent.txt change.txt")
		return 2
	}
	failures, err := gate(args[0], args[1], args[2], stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	for _, f := range failures {
		fmt.Fprintln(stderr, "benchdiff: FAIL:", f)
	}
	if len(failures) > 0 {
		return 1
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

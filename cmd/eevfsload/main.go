// Command eevfsload is the open-loop load harness for the real EEVFS
// TCP stack (DESIGN.md §21). It boots a live cluster in-process — a
// replicated metadata server group over N storage nodes — or attaches to
// a running one (-addr), then drives thousands of concurrent pipelined
// logical clients whose requests arrive on a Poisson, uniform, or bursty
// schedule, mixing RPC reads/writes and streamed transfers against a
// Zipf-popularity working set.
//
// It reports p50/p99/p999 latency per op class, achieved vs offered
// throughput, and the typed error taxonomy; -rate-sweep runs a stepped
// saturation search and reports the knee. -json emits the machine-
// readable result; -max-p99 / -fail-on-errors turn the run into a CI
// assertion.
//
// Examples:
//
//	eevfsload -clients 500 -rate 3000 -duration 60s -fail-on-errors -max-p99 0.5
//	eevfsload -clients 2000 -rate-sweep 2000:20000:8 -step-duration 10s -json sweep.json
//	eevfsload -addr 10.0.0.1:7000,10.0.0.2:7000 -clients 10000 -rate 12000 -duration 30s
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"eevfs/internal/fs"
)

func main() {
	var (
		addr        = flag.String("addr", "", "attach to running metadata servers (comma-separated) instead of booting a cluster")
		servers     = flag.Int("cluster-servers", 3, "replicated metadata servers to boot (in-process mode)")
		nodes       = flag.Int("cluster-nodes", 3, "storage nodes to boot (in-process mode)")
		policy      = flag.String("policy", "static", "prefetch policy for the booted servers: static or adaptive")
		injectLat   = flag.Bool("inject-latency", false, "boot nodes with modeled disk latency injection")
		clients     = flag.Int("clients", 500, "concurrent logical clients")
		conns       = flag.Int("conns", 64, "shared multiplexed connections (fs.Client instances)")
		duration    = flag.Duration("duration", 30*time.Second, "measured run length (0 with -ops for op-bounded runs)")
		maxOps      = flag.Int64("ops", 0, "stop after this many operations (0 = duration-bounded)")
		rate        = flag.Float64("rate", 0, "aggregate offered ops/sec (0 = closed loop)")
		process     = flag.String("process", "poisson", "arrival process: poisson, uniform, or burst")
		burstFactor = flag.Float64("burst-factor", 4, "burst-state rate multiplier (burst process)")
		burstFrac   = flag.Float64("burst-fraction", 0.1, "long-run fraction of time in the burst state")
		burstMean   = flag.Float64("burst-mean", 1, "mean burst dwell in seconds")
		files       = flag.Int("files", 512, "working-set size")
		fileSize    = flag.Int("file-size", 16384, "bytes per working-set file")
		zipfS       = flag.Float64("zipf", 1.1, "popularity exponent over the working set")
		writeFrac   = flag.Float64("writes", 0, "fraction of ops that are RPC writes")
		streamFrac  = flag.Float64("streams", 0, "fraction of ops that are streamed reads")
		seed        = flag.Uint64("seed", 1, "deterministic seed for arrivals and popularity")
		report      = flag.Duration("report", time.Second, "live report interval (0 = quiet)")
		jsonOut     = flag.String("json", "", "write the machine-readable result to this file")
		maxP99      = flag.Float64("max-p99", 0, "fail (exit 1) if any op class's p99 exceeds this many seconds")
		failOnErrs  = flag.Bool("fail-on-errors", false, "fail (exit 1) if any op returns a typed error")
		sweep       = flag.String("rate-sweep", "", "stepped saturation search lo:hi:steps (ops/sec); overrides -rate")
		stepDur     = flag.Duration("step-duration", 10*time.Second, "measured length of each sweep step")
		verbose     = flag.Bool("v", false, "daemon logs to stderr (default discarded)")
	)
	flag.Parse()

	logger := log.New(io.Discard, "", 0)
	if *verbose {
		logger = log.New(os.Stderr, "eevfsload ", log.LstdFlags)
	}

	serverAddrs, cleanup, err := clusterAddrs(*addr, *servers, *nodes, *policy, *injectLat, logger)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eevfsload:", err)
		os.Exit(2)
	}
	defer cleanup()

	base := fs.LoadConfig{
		ServerAddrs:   serverAddrs,
		Clients:       *clients,
		Conns:         *conns,
		Duration:      *duration,
		MaxOps:        *maxOps,
		RatePerSec:    *rate,
		Process:       *process,
		BurstFactor:   *burstFactor,
		BurstFraction: *burstFrac,
		BurstMeanSec:  *burstMean,
		Files:         *files,
		FileSize:      *fileSize,
		ZipfS:         *zipfS,
		WriteFrac:     *writeFrac,
		StreamFrac:    *streamFrac,
		Seed:          *seed,
	}
	if *report > 0 {
		base.ReportEvery = *report
		base.OnReport = printReport
	}

	exit := 0
	if *sweep != "" {
		res, err := runSweep(base, *sweep, *stepDur, *maxP99)
		if err != nil {
			fmt.Fprintln(os.Stderr, "eevfsload:", err)
			cleanup()
			os.Exit(2)
		}
		printSweep(res)
		if err := writeJSON(*jsonOut, res); err != nil {
			fmt.Fprintln(os.Stderr, "eevfsload:", err)
			exit = 2
		}
		if *failOnErrs {
			for _, st := range res.Steps {
				if st.Result.Failed > 0 {
					fmt.Fprintf(os.Stderr, "eevfsload: FAIL: %d typed errors at %g ops/s: %v\n",
						st.Result.Failed, st.Rate, st.Result.Errors)
					exit = 1
				}
			}
		}
	} else {
		res, err := fs.RunLoad(base)
		if err != nil {
			fmt.Fprintln(os.Stderr, "eevfsload:", err)
			cleanup()
			os.Exit(2)
		}
		printResult(res)
		if err := writeJSON(*jsonOut, res); err != nil {
			fmt.Fprintln(os.Stderr, "eevfsload:", err)
			exit = 2
		}
		if *failOnErrs && res.Failed > 0 {
			fmt.Fprintf(os.Stderr, "eevfsload: FAIL: %d typed errors: %v\n", res.Failed, res.Errors)
			exit = 1
		}
		if *maxP99 > 0 {
			for class, st := range res.Ops {
				if st.Count > 0 && st.P99 > *maxP99 {
					fmt.Fprintf(os.Stderr, "eevfsload: FAIL: %s p99 %.1fms exceeds bound %.1fms\n",
						class, st.P99*1000, *maxP99*1000)
					exit = 1
				}
			}
		}
	}
	cleanup()
	os.Exit(exit)
}

// clusterAddrs resolves the target cluster: parse -addr, or boot a
// replicated group plus nodes in-process (fs.StartLocal) and return the
// servers' addresses.
func clusterAddrs(attach string, servers, nodes int, policy string, injectLat bool, logger *log.Logger) ([]string, func(), error) {
	if attach != "" {
		return strings.Split(attach, ","), func() {}, nil
	}
	dir, err := os.MkdirTemp("", "eevfsload-")
	if err != nil {
		return nil, nil, err
	}
	local, err := fs.StartLocal(fs.LocalConfig{
		Nodes: nodes, Servers: servers, Dir: dir,
		Node:   func(_ int, c *fs.NodeConfig) { c.InjectLatency, c.Logger = injectLat, logger },
		Server: func(_ int, c *fs.ServerConfig) { c.Policy, c.Logger = policy, logger },
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	return local.Addrs, func() { local.Close(); os.RemoveAll(dir) }, nil
}

// printReport renders one live tick: cumulative accounting plus the
// recent window's per-class tails.
func printReport(r fs.LoadReport) {
	line := fmt.Sprintf("[%5.1fs] issued=%d done=%d fail=%d rate=%.0f/s",
		r.Elapsed.Seconds(), r.Issued, r.Completed, r.Failed, r.WindowRate)
	for _, class := range []string{fs.LoadOpRead, fs.LoadOpWrite, fs.LoadOpStream} {
		w, ok := r.Window[class]
		if !ok || w.Count == 0 {
			continue
		}
		line += fmt.Sprintf("  %s p50=%.1fms p99=%.1fms", class, w.P50*1000, w.P99*1000)
	}
	fmt.Println(line)
}

func printResult(res fs.LoadResult) {
	fmt.Printf("\n%.1fs, %d clients over %d conns: issued=%d completed=%d failed=%d\n",
		res.DurationSec, res.Clients, res.Conns, res.Issued, res.Completed, res.Failed)
	if res.OfferedRate > 0 {
		fmt.Printf("offered %.0f ops/s, achieved %.0f ops/s (%.1f%%)\n",
			res.OfferedRate, res.AchievedRate, 100*res.AchievedRate/res.OfferedRate)
	} else {
		fmt.Printf("closed loop: achieved %.0f ops/s\n", res.AchievedRate)
	}
	classes := make([]string, 0, len(res.Ops))
	for class := range res.Ops {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		st := res.Ops[class]
		if st.Count == 0 {
			continue
		}
		fmt.Printf("  %-6s n=%-8d mean=%6.1fms p50=%6.1fms p99=%6.1fms p999=%6.1fms errs=%d\n",
			class, st.Count, st.Mean*1000, st.P50*1000, st.P99*1000, st.P999*1000, st.Errors)
	}
	if len(res.Errors) > 0 {
		fmt.Printf("  error taxonomy: %v\n", res.Errors)
	}
}

// SweepStep is one measured point of a rate sweep.
type SweepStep struct {
	Rate   float64       `json:"rate"`
	Result fs.LoadResult `json:"result"`
}

// SweepResult is the machine-readable outcome of -rate-sweep: every
// measured step plus the knee (the highest offered rate the cluster
// still kept up with).
type SweepResult struct {
	Steps []SweepStep `json:"steps"`
	// KneeRate is the highest offered rate with achieved >= 95% of
	// offered and (when -max-p99 is set) read p99 under the bound; 0
	// when even the lowest step saturated.
	KneeRate float64 `json:"knee_rate"`
}

// runSweep steps the offered rate from lo to hi and finds the knee.
func runSweep(base fs.LoadConfig, spec string, stepDur time.Duration, maxP99 float64) (SweepResult, error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return SweepResult{}, fmt.Errorf("bad -rate-sweep %q (want lo:hi:steps)", spec)
	}
	lo, err1 := strconv.ParseFloat(parts[0], 64)
	hi, err2 := strconv.ParseFloat(parts[1], 64)
	steps, err3 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || err3 != nil || lo <= 0 || hi < lo || steps < 2 {
		return SweepResult{}, fmt.Errorf("bad -rate-sweep %q (want 0 < lo <= hi, steps >= 2)", spec)
	}
	var out SweepResult
	for i := 0; i < steps; i++ {
		rate := lo + (hi-lo)*float64(i)/float64(steps-1)
		cfg := base
		cfg.RatePerSec = rate
		cfg.Duration = stepDur
		cfg.MaxOps = 0
		cfg.SkipPreload = i > 0 // the first step created the working set
		fmt.Printf("--- sweep step %d/%d: offered %.0f ops/s for %s\n", i+1, steps, rate, stepDur)
		res, err := fs.RunLoad(cfg)
		if err != nil {
			return out, err
		}
		printResult(res)
		out.Steps = append(out.Steps, SweepStep{Rate: rate, Result: res})
		if keptUp(res, maxP99) {
			out.KneeRate = rate
		}
	}
	return out, nil
}

// keptUp reports whether the cluster kept up with one sweep step's
// offered rate: achieved within 95% of offered, no typed errors, and —
// when a p99 bound is set — the read tail under it.
func keptUp(res fs.LoadResult, maxP99 float64) bool {
	if res.AchievedRate < 0.95*res.OfferedRate || res.Failed > 0 {
		return false
	}
	if maxP99 > 0 {
		for _, st := range res.Ops {
			if st.Count > 0 && st.P99 > maxP99 {
				return false
			}
		}
	}
	return true
}

func printSweep(res SweepResult) {
	fmt.Println("\nrate sweep:")
	fmt.Printf("  %10s  %10s  %8s  %8s  %6s\n", "offered/s", "achieved/s", "p99(ms)", "p999(ms)", "errs")
	for _, st := range res.Steps {
		read := st.Result.Ops[fs.LoadOpRead]
		fmt.Printf("  %10.0f  %10.0f  %8.1f  %8.1f  %6d\n",
			st.Rate, st.Result.AchievedRate, read.P99*1000, read.P999*1000, st.Result.Failed)
	}
	if res.KneeRate > 0 {
		fmt.Printf("  knee: %.0f ops/s\n", res.KneeRate)
	} else {
		fmt.Println("  knee: below the lowest step (cluster saturated everywhere)")
	}
}

func writeJSON(path string, v any) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

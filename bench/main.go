// Command bench is the repository's one benchmark (see README.md and
// ../BENCHMARK.json): the paper's three metrics — joules, power-state
// transitions, response time — plus throughput, CPU and memory, end to
// end on the live TCP stack and on the simulator, and per layer in a
// separate traced run. It boots everything in-process through the
// packages' public functions, generates every input from -seed, and
// verifies every output.
//
//	go run ./bench                                   # all five workloads, untraced then traced
//	go run ./bench --workload hot-read --seed 1 --seconds 16 --trace 0
//	go run ./bench --workload hot-read --trace 1 --trace-out trace.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"syscall"
)

// spec names one metric and its unit. Directions and bounds live in
// BENCHMARK.json; the smoke test holds the two lists to each other.
type spec struct{ name, unit string }

// endToEnd is what a user of the system sees. Every workload reports
// every one of them; what "op" means per workload is in README.md.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"joules_per_op", "J"},
	{"peak_rss_mb", "MB"},
}

// perLayer is the traced run's view. A metric that is not measured on a
// workload is printed as 0 and marked n/a.
var perLayer = []spec{
	{"op_p95_ms", "ms"}, {"op_p99_ms", "ms"},
	{"read_p50_ms", "ms"}, {"read_p99_ms", "ms"},
	{"write_p50_ms", "ms"}, {"write_p99_ms", "ms"},
	{"stream_read_MBps", "MB/s"}, {"stream_write_MBps", "MB/s"},
	{"transitions_per_kop", "count"}, {"pf_energy_saving_pct", "%"},
	{"sim_resp_mean_s", "s"}, {"sim_resp_p99_s", "s"},
	{"proto.echo_rt_us_p50", "us"}, {"proto.echo_rt_us_p99", "us"},
	{"proto.echo_pipelined_ops_s", "1/s"},
	{"proto.stream_MBps", "MB/s"}, {"proto.stream_ttfb_us", "us"},
	{"proto.rt.retries", "count"}, {"proto.rt.timeouts", "count"},
	{"fs.client.read_self_us", "us"}, {"fs.client.dial_ms", "ms"},
	{"fs.client.small_readto_us", "us"}, {"fs.client.small_read_us", "us"},
	{"fs.server.lookup_rt_us_p50", "us"}, {"fs.server.lookup_rt_us_p99", "us"},
	{"fs.server.lookupwrite_rt_us", "us"},
	{"fs.server.create_rt_us", "us"}, {"fs.server.delete_rt_us", "us"},
	{"fs.server.prefetch_s", "s"}, {"fs.server.stats_rt_ms", "ms"},
	{"fs.repl.converge_ms", "ms"}, {"fs.repl.lag_max", "count"},
	{"fs.node.read_hit_rt_us", "us"}, {"fs.node.read_miss_rt_us", "us"},
	{"fs.node.write_rt_us", "us"}, {"fs.node.buffer_hit_ratio", "ratio"},
	{"fs.node.spinups", "count"}, {"fs.node.spindowns", "count"},
	{"fs.node.data_energy_j", "J"}, {"fs.node.buffer_energy_j", "J"},
	{"fs.node.standby_frac", "ratio"},
	{"fs.persist.manifest_bytes", "B"}, {"fs.persist.state_bytes", "B"},
	{"fs.persist.write_amp", "ratio"},
	{"metadata.lookup_ns", "ns"}, {"metadata.lookup_par_ns", "ns"}, {"metadata.put_ns", "ns"},
	{"trace.append_ns", "ns"}, {"trace.scan_tail_us", "us"},
	{"prefetch.select_ms", "ms"}, {"placement.roundrobin_us", "us"},
	{"disk.step_ns", "ns"}, {"simtime.event_ns", "ns"},
	{"cluster.run_ms_pf", "ms"}, {"cluster.run_ms_npf", "ms"}, {"cluster.run_ms_adaptive", "ms"},
	{"cluster.allocs_per_req", "count"},
	{"experiments.battery_s", "s"}, {"experiments.battery_parallel_s", "s"},
	{"workload.synthetic_gen_ms", "ms"}, {"workload.arrivals_ns", "ns"},
	{"adaptive.observe_ns", "ns"},
	{"telemetry.observe_ns", "ns"}, {"telemetry.span_ns", "ns"},
	{"go.allocs_per_op", "count"}, {"go.alloc_bytes_per_op", "B"},
	{"go.gc_cycles", "count"}, {"go.gc_pause_ms", "ms"},
	{"bench.gen_lag_p99_ms", "ms"},
	{"bench.traced_ops_per_s", "1/s"}, {"bench.trace_overhead_frac", "ratio"},
	{"bench.host_canary_ms", "ms"}, {"bench.host_steal_frac", "ratio"},
}

// benchWorkload is one named set of inputs.
type benchWorkload struct {
	name, why string
	run       func(o options, h *host, rep *report)
}

func workloads() []benchWorkload {
	live := func(w liveWorkload) benchWorkload {
		return benchWorkload{w.name, w.why, func(o options, h *host, rep *report) {
			sized := w
			if o.smoke {
				sized = w.shrunk()
			}
			runLive(sized, o, h, rep)
		}}
	}
	return []benchWorkload{
		live(hotRead), live(writeMix),
		{"stream-large", streamWhy, runStream},
		live(coldPower),
		{"sim-paper", simWhy, runSim},
	}
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	dir      string
	smoke    bool
}

// simRequests is the trace length of sim-paper.
const simRequests = 5000

func (o options) simRequests() int {
	if o.smoke {
		return simRequests / 25
	}
	return simRequests
}

// value is one reported metric: the median of its per-segment values
// with their range, or a single value.
type value struct {
	v, lo, hi float64
	n         int // samples behind the figure: segments, or ops for a pooled percentile
	set       bool
}

// report collects one workload run's results.
type report struct {
	out        io.Writer
	vals       map[string]value
	notes      []string
	attempted  int64
	failed     int64
	mismatches int64
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// count adds the segments' operations to the run's totals.
func (r *report) count(modes ...[]segResult) {
	for _, segs := range modes {
		for _, s := range segs {
			r.attempted += s.attempted
			r.failed += s.failed
		}
	}
}

// set records a metric as the median of its per-segment values.
func (r *report) set(name string, s series) {
	lo, hi := s.minMax()
	r.vals[name] = value{v: s.median(), lo: lo, hi: hi, n: len(s), set: true}
}

func (r *report) setv(name string, v float64) { r.set(name, series{v}) }

// setTail records a tail percentile q: the median of the per-segment
// values when every segment has at least ten samples beyond it, else the
// percentile of the pooled samples (n then says how many there were).
func (r *report) setTail(name string, q float64, segs []segResult, kinds ...opKind) {
	enough := true
	for _, s := range segs {
		enough = enough && float64(len(s.samples(kinds...)))*(1-q) >= 10
	}
	if enough {
		r.set(name, each(segs, func(s segResult) float64 { return s.quantile(q, kinds...) }))
		return
	}
	pooled := pooledSorted(segs, kinds...)
	p := percentile(pooled, q)
	r.vals[name] = value{v: p, lo: p, hi: p, n: len(pooled), set: true}
}

// setClassLatency records one op class's open-loop p50 and p99, when the
// workload has ops of that class.
func (r *report) setClassLatency(class string, segs []segResult, kind opKind) {
	if len(pooledSorted(segs, kind)) == 0 {
		return
	}
	r.set(class+"_p50_ms", each(segs, func(s segResult) float64 { return s.quantile(0.5, kind) }))
	r.setTail(class+"_p99_ms", 0.99, segs, kind)
}

// result is the contract's last line of output.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the metric table and the JSON line; it reports whether the
// run was correct.
func (r *report) emit(specs []spec, endToEndRun bool) bool {
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]resultMetric{}}
	res.Correct = r.mismatches == 0 && r.attempted > 0
	for _, n := range r.notes {
		fmt.Fprintln(r.out, "note:", n)
	}
	fmt.Fprintf(r.out, "%-32s %16s %-6s %s\n", "metric", "median", "unit", "[min – max] n")
	for _, s := range specs {
		v := r.vals[s.name]
		switch {
		case !v.set && endToEndRun, math.IsNaN(v.v), math.IsInf(v.v, 0):
			fmt.Fprintf(r.out, "%-32s %16s %-6s missing\n", s.name, "-", s.unit)
			res.Correct = false
			v.v = 0
		case !v.set:
			fmt.Fprintf(r.out, "%-32s %16s %-6s n/a on this workload\n", s.name, "0", s.unit)
		default:
			fmt.Fprintf(r.out, "%-32s %16.6g %-6s [%.6g – %.6g] n=%d\n", s.name, v.v, s.unit, v.lo, v.hi, v.n)
		}
		res.Metrics[s.name] = resultMetric{Value: v.v, Unit: s.unit}
	}
	line, err := json.Marshal(res)
	check(err, "encoding the result")
	fmt.Fprintf(r.out, "%s\n", line)
	return res.Correct
}

// runWorkload measures one workload in one mode and prints its result.
func runWorkload(w benchWorkload, o options, stdout io.Writer) bool {
	mode, specs := "untraced: end-to-end metrics", endToEnd
	if o.trace {
		mode, specs = "traced: per-layer metrics", perLayer
	}
	fmt.Fprintf(stdout, "== %s (%s; seed %d, %g s) — %s\n", w.name, mode, o.seed, o.seconds, w.why)
	kind, _ := statfs(o.dir)
	fmt.Fprintf(stdout, "note: GOMAXPROCS %d, %s, data under %s (%s); flush policy: none, nothing is fsynced\n",
		runtime.GOMAXPROCS(0), runtime.Version(), o.dir, kind)
	h := newHost()
	rep := &report{out: stdout, vals: map[string]value{}}
	w.run(o, h, rep)
	if o.trace {
		probeModules(rep, h.procs, newProber(o))
		rep.set("bench.host_canary_ms", h.canaries)
		rep.setv("bench.host_steal_frac", h.steals.max())
	}
	lo, hi := h.canaries.minMax()
	quiet := "quiet"
	if h.noisy {
		quiet = "NOISY: a comparison must read this run as unresolved"
	}
	rep.note("host: %s; canary %.2f–%.2f ms over %d readings, worst steal %.3f", quiet, lo, hi, len(h.canaries), h.steals.max())
	return rep.emit(specs, !o.trace)
}

// defaultDir picks where the daemons keep their files. The live
// workloads rewrite whole tables and rename them into place on every
// mutation; on a disk-backed filesystem each rename forces write-back, so
// the device sets the numbers (on the sandbox's ext4 the same commit's
// closed-loop write mix ranged 790–1650 ops/s against 1545–1629 on tmpfs).
// So: a tmpfs when there is one with room, else the checkout.
func defaultDir() string {
	const shm, room = "/dev/shm", 2 << 30
	if kind, free := statfs(shm); kind == "tmpfs" && free >= room {
		if dir, err := os.MkdirTemp(shm, "eevfs-bench-probe-"); err == nil {
			os.Remove(dir)
			return shm
		}
	}
	return ".bench_build"
}

// statfs names the filesystem under dir by its magic and returns the
// bytes free on it.
func statfs(dir string) (kind string, free uint64) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown fs", 0
	}
	free = st.Bavail * uint64(st.Bsize)
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs", free
	case 0xef53:
		return "ext4", free
	case 0x794c7630:
		return "overlayfs", free
	case 0x58465342:
		return "xfs", free
	case 0x9123683e:
		return "btrfs", free
	}
	return fmt.Sprintf("fs magic %#x", uint32(st.Type)), free
}

// bail aborts the run. Once set-up or a probe fails the benchmark has
// nothing to measure, so such errors unwind to run(), which reports them
// and exits non-zero; failed operations inside measured segments are
// counted instead.
type bail struct{ err error }

func check(err error, doing string) {
	if err != nil {
		panic(bail{fmt.Errorf("%s: %w", doing, err)})
	}
}

// run is main without the exit: it returns the process's exit code.
func run(args []string, stdout, stderr io.Writer) (code int) {
	var o options
	var trace int
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	fl.StringVar(&o.workload, "workload", "", "workload to run (default: all five, untraced then traced)")
	fl.Uint64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fl.Float64Var(&o.seconds, "seconds", 16, "measured seconds per run")
	fl.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics; 0 = untraced run: end-to-end metrics")
	fl.StringVar(&o.traceOut, "trace-out", "", "traced run: write the benchmark's spans here as Chrome trace JSON")
	fl.StringVar(&o.dir, "dir", "", "directory for the daemons' files (default: /dev/shm when it is a tmpfs with room, else .bench_build here)")
	fl.BoolVar(&o.smoke, "smoke", false, "shrink every input for a smoke test; the numbers are not comparable")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	o.trace = trace != 0

	defer func() {
		if r := recover(); r != nil {
			b, ok := r.(bail)
			if !ok {
				panic(r)
			}
			fmt.Fprintln(stderr, "bench:", b.err)
			code = 2
		}
	}()
	if o.dir == "" {
		o.dir = defaultDir()
	}
	check(os.MkdirAll(o.dir, 0o755), "creating the data directory")

	all := workloads()
	correct := true
	if o.workload != "" {
		for _, w := range all {
			if w.name == o.workload {
				if !runWorkload(w, o, stdout) {
					return 1
				}
				return 0
			}
		}
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	for _, traced := range []bool{false, true} {
		for _, w := range all {
			o.trace = traced
			correct = runWorkload(w, o, stdout) && correct
		}
	}
	if !correct {
		return 1
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

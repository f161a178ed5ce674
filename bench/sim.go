package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"time"

	"eevfs/internal/cluster"
	"eevfs/internal/experiments"
	"eevfs/internal/trace"
	"eevfs/internal/workload"
)

const simWhy = "the simulator as its own layer: the 27-experiment battery for host speed, cluster.Run PF vs NPF for simulated joules; a simulator speed-up must leave every simulated statistic bit-identical"

// simInputs is what sim-paper's set-up produces.
type simInputs struct {
	ids      []string
	requests int
	trace    *trace.Trace
}

// simSetUp generates the default synthetic trace from the seed and runs
// the whole battery once at a tenth of the size, so lazy initialisation
// is paid before anything is timed.
func simSetUp(o options) simInputs {
	in := simInputs{ids: experiments.IDs(), requests: o.simRequests()}
	cfg := workload.DefaultSynthetic()
	cfg.NumRequests = in.requests
	cfg.Seed = o.seed
	var err error
	in.trace, err = workload.Synthetic(cfg)
	check(err, "generating synthetic trace")
	_, err = experiments.RunMany(in.ids, experiments.Options{Requests: in.requests / 10, Seed: o.seed})
	check(err, "warming the battery up")
	return in
}

// battery runs every experiment once and returns a digest of the
// rendered tables. Sequentially (workers 0) it runs them one RunMany call
// each, so that the host time of every experiment is known.
func battery(in simInputs, seed uint64, workers int) (digest [sha256.Size]byte, perExperimentMs []float64) {
	opts := experiments.Options{Requests: in.requests, Seed: seed, Workers: workers}
	groups := [][]string{in.ids}
	if workers == 0 {
		groups = nil
		for _, id := range in.ids {
			groups = append(groups, []string{id})
		}
	}
	var buf bytes.Buffer
	for _, ids := range groups {
		t0 := time.Now()
		tables, err := experiments.RunMany(ids, opts)
		check(err, "running the experiment battery")
		perExperimentMs = append(perExperimentMs, ms(time.Since(t0)))
		for _, t := range tables {
			check(t.Render(&buf), "rendering a table")
		}
	}
	return sha256.Sum256(buf.Bytes()), perExperimentMs
}

// runSim measures the simulator: the experiment battery for host speed,
// cluster.Run on the default testbed for the simulated statistics.
func runSim(o options, h *host, rep *report) {
	total := time.Duration(o.seconds * float64(time.Second))
	setUps := setUpRepeats
	if o.trace {
		setUps = 1
		total = total * 6 / 10
	}
	var setUpS series
	var in simInputs
	for i := 0; i < setUps; i++ {
		t0 := time.Now()
		in = simSetUp(o)
		setUpS = append(setUpS, time.Since(t0).Seconds())
	}
	simulated := float64(len(in.ids) * in.requests) // requests one battery replays, nominally

	// Sequential battery, repeated while time remains; at least twice so
	// the digest can be compared.
	rerun := total / 4
	var reps []segResult
	var digest [sha256.Size]byte
	for start := time.Now(); len(reps) < 2 || time.Since(start)+reps[0].dur <= total; {
		reps = append(reps, h.measure(&rerun, func() segResult {
			mem0, cpu0, t0 := readMem(), cpuTime(), time.Now()
			d, perExperiment := battery(in, o.seed, 0)
			if len(reps) > 0 && d != digest {
				rep.mismatches++
				rep.note("table digest changed between repetitions")
			}
			digest = d
			seg := segResult{dur: time.Since(t0), cpu: cpuTime() - cpu0, mem: readMem().sub(mem0), attempted: int64(simulated)}
			seg.lat[opRead] = perExperiment
			return seg
		}))
	}
	rep.note("battery: %d experiments x %d requests, %d sequential repetitions, table digest %x", len(in.ids), in.requests, len(reps), digest[:6])

	// Simulated statistics: exact functions of the seed.
	testbed := cluster.DefaultTestbed()
	pf, err := cluster.Run(testbed, in.trace)
	check(err, "simulating the PF arm")
	npf, err := cluster.Run(testbed.NPF(), in.trace)
	check(err, "simulating the NPF arm")
	for _, r := range []cluster.Result{pf, npf} {
		if math.Abs(r.TotalEnergyJ-(r.BaseEnergyJ+r.DiskEnergyJ)) > 1e-9*r.TotalEnergyJ {
			rep.mismatches++
			rep.note("energy not conserved: total %g != base %g + disk %g", r.TotalEnergyJ, r.BaseEnergyJ, r.DiskEnergyJ)
		}
	}
	if pf.TotalEnergyJ > npf.TotalEnergyJ {
		rep.mismatches++
		rep.note("PF energy %g exceeds NPF energy %g at the default point", pf.TotalEnergyJ, npf.TotalEnergyJ)
	}
	for _, s := range reps {
		rep.attempted += s.attempted
	}
	rep.attempted += int64(pf.Requests + npf.Requests)

	rep.set("setup_s", setUpS)
	rep.set("ops_per_s", each(reps, func(s segResult) float64 { return simulated / s.dur.Seconds() }))
	rep.set("cpu_us_per_op", each(reps, func(s segResult) float64 { return us(s.cpu) / simulated }))
	rep.set("peak_rss_mb", each(reps, segResult.rss))
	// Latency on this workload is the host's: time per experiment of the
	// battery. The simulated response times are exact and quantised (fixed
	// file sizes), so they are per-layer figures.
	rep.set("op_p50_ms", each(reps, func(s segResult) float64 { return s.quantile(0.5) }))
	rep.setv("joules_per_op", pf.TotalEnergyJ/float64(pf.Requests))
	if !o.trace {
		return
	}
	rep.setTail("op_p95_ms", 0.95, reps)
	rep.setTail("op_p99_ms", 0.99, reps)
	rep.setv("transitions_per_kop", 1000*float64(pf.Transitions)/float64(pf.Requests))

	rep.setv("pf_energy_saving_pct", pf.EnergySavingsVs(npf))
	rep.setv("sim_resp_mean_s", pf.Response.Mean)
	rep.setv("sim_resp_p99_s", pf.Response.P99)
	rep.setv("fs.node.buffer_hit_ratio", pf.HitRatio())
	rep.setv("fs.node.spinups", float64(pf.SpinUps))
	rep.setv("fs.node.spindowns", float64(pf.SpinDowns))
	rep.setGoRuntime(reps)
	rep.set("experiments.battery_s", each(reps, func(s segResult) float64 { return s.dur.Seconds() }))
	t0 := time.Now()
	if d, _ := battery(in, o.seed, h.procs); d != digest {
		rep.mismatches++
		rep.note("parallel battery rendered different tables")
	}
	rep.setv("experiments.battery_parallel_s", time.Since(t0).Seconds())

	arms := []struct {
		name string
		cfg  cluster.Config
	}{{"pf", testbed}, {"npf", testbed.NPF()}, {"adaptive", testbed.AdaptiveArm()}}
	for _, arm := range arms {
		var took series
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			_, err := cluster.Run(arm.cfg, in.trace)
			check(err, "simulating the "+arm.name+" arm")
			took = append(took, ms(time.Since(t0)))
		}
		rep.set("cluster.run_ms_"+arm.name, took)
	}
	mem0 := readMem()
	_, err = cluster.Run(testbed, in.trace)
	check(err, "simulating the PF arm")
	rep.setv("cluster.allocs_per_req", float64(readMem().sub(mem0).mallocs)/float64(in.requests))
	fmt.Fprintf(rep.out, "simulated, PF arm: %s\n", pf)
}

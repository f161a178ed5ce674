package main

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// segmentsPerMode is how many measured segments each mode of a workload
// gets; every timing metric is the median of its per-segment values.
const segmentsPerMode = 5

// liveWorkload describes one workload on the real TCP stack.
type liveWorkload struct {
	name      string
	why       string
	spec      clusterSpec
	files     int
	fileSize  int
	zipf      float64
	mix       opMix
	owned     bool    // each client works a disjoint name range
	rate      float64 // offered ops/s of the open-loop segments
	warmReads int     // reads of the popularity warm-up pass
	prefetchK int     // Client.Prefetch(K) after warm-up; 0 = none
	// Shares of --seconds: the open-loop segments and the closed-loop
	// segments. With npfArm the traced run first spends a quarter of its
	// time on an open-loop arm before the prefetch (NPF), for the paper's
	// PF-against-NPF saving.
	openShare, closedShare float64
	npfArm                 bool
}

var errMismatch = errors.New("bench: content mismatch")

// segResult is what one measured segment yields.
type segResult struct {
	dur       time.Duration
	lat       [numKinds][]float64 // ms per completed op, by class
	lagMs     []float64           // open loop: how late each op was issued
	attempted int64
	failed    int64
	bytes     int64 // payload bytes moved
	cpu       time.Duration
	mem       memCounters
	disk      diskTotals
	canaryMs  float64 // slower of the canaries before and after
	steal     float64
	peakRSSMB float64 // resident high-water mark over the segment
}

func (s segResult) rss() float64 { return s.peakRSSMB }

func (s segResult) completed() float64 { return float64(s.attempted - s.failed) }

// samples returns the segment's latencies of the given classes (all when
// none is named), unsorted.
func (s segResult) samples(kinds ...opKind) []float64 {
	if len(kinds) == 0 {
		kinds = []opKind{opRead, opWrite, opCreate, opDelete}
	}
	var out []float64
	for _, k := range kinds {
		out = append(out, s.lat[k]...)
	}
	return out
}

func (s segResult) quantile(q float64, kinds ...opKind) float64 {
	return percentile(pooledSorted([]segResult{s}, kinds...), q)
}

// liveRun is one workload's cluster, its logical clients and their
// operation streams, which continue across segments.
type liveRun struct {
	w       liveWorkload
	h       *host
	c       *liveCluster
	content *contentGen
	crcs    []uint32 // expected CRC32-C per preloaded file; owner-written
	gens    []*opGen
	// viaStream sends reads through the streaming plane (ReadTo) instead
	// of the RPC: stream-large's small-file comparison.
	viaStream  bool
	closedLoop bool          // the segment under way is closed-loop
	conns      []*tracedConn // traced run only
	spans      [][]spanRec   // traced run only: one buffer per logical client
	rerun      time.Duration
	mism       atomic.Int64
}

// do performs one operation through fs.Client and verifies what it read.
func (r *liveRun) do(g int, o op, buf []byte) error {
	cl := r.c.client(g)
	switch o.kind {
	case opRead:
		if r.viaStream {
			var v crcWriter
			if _, _, err := cl.ReadTo(o.name, &v); err != nil {
				return err
			}
			return r.check(o.file, v)
		}
		data, _, err := cl.Read(o.name)
		if err != nil {
			return err
		}
		return r.verify(o.file, data)
	case opWrite:
		crc := r.content.fill(buf, o.file, o.version)
		if _, err := cl.Write(o.name, buf); err != nil {
			return err
		}
		r.crcs[o.file] = crc
		return nil
	case opCreate:
		r.content.fill(buf, o.file, 0)
		return cl.Create(o.name, buf)
	default:
		return cl.Delete(o.name)
	}
}

// verify checks a read against the content the generator derived for
// the file's last acked version: length and CRC32-C.
func (r *liveRun) verify(file int, data []byte) error {
	var v crcWriter
	_, _ = v.Write(data)
	return r.check(file, v)
}

func (r *liveRun) check(file int, v crcWriter) error {
	if v.n != int64(r.w.fileSize) || v.crc != r.crcs[file] {
		r.mism.Add(1)
		return errMismatch
	}
	return nil
}

// segment drives every logical client for dur: open loop at the
// workload's rate when open is set (each op timed from its scheduled
// arrival), else back to back. traced issues each op as its two
// Endpoint.Call halves with spans recorded.
func (r *liveRun) segment(open, traced bool, dur time.Duration) segResult {
	r.closedLoop = !open
	return r.c.drive(len(r.gens), dur, func(g int, p *segResult, start, deadline time.Time) {
		buf := make([]byte, r.w.fileSize)
		next := start
		for {
			sched := time.Now()
			if open {
				next = next.Add(r.gens[g].arr.Next())
				if next.After(deadline) {
					return
				}
				time.Sleep(time.Until(next))
				sched = next // coordinated-omission correction
				p.lagMs = append(p.lagMs, ms(time.Since(next)))
			} else if sched.After(deadline) {
				return
			}
			// Drawn only once the op is certain to run: the stream
			// remembers what it wrote and created.
			o := r.gens[g].next()
			var err error
			if traced {
				err = r.doTraced(g, o, buf)
			} else {
				err = r.do(g, o, buf)
			}
			p.attempted++
			if err != nil {
				p.failed++
				continue
			}
			p.lat[o.kind] = append(p.lat[o.kind], ms(time.Since(sched)))
		}
	})
}

// segments runs one mode's measured segments.
func (r *liveRun) segments(open, traced bool, total time.Duration) []segResult {
	out := make([]segResult, segmentsPerMode)
	for i := range out {
		out[i] = r.h.measure(&r.rerun, func() segResult {
			return r.segment(open, traced, total/segmentsPerMode)
		})
	}
	return out
}

// setUp boots the cluster, preloads the working set and runs the
// popularity warm-up pass; prefetch is separate because cold-power
// measures its NPF arm before it.
func (r *liveRun) setUp(root string, traced bool) {
	r.c = boot(root, r.w.spec, min(r.h.procs, 4), traced)
	n := r.c.goroutines()
	r.crcs = make([]uint32, r.w.files)
	r.gens = make([]*opGen, n)
	for g := range r.gens {
		r.gens[g] = newOpGen(r.content.seed, g, n, r.w)
	}

	// Preload in rank order over one connection. The server places files
	// round-robin in arrival order, so this spreads the popular files
	// evenly over the nodes — and identically on every run: creating in
	// parallel let arrival order, and with it each node's share of the
	// load, differ from run to run.
	buf := make([]byte, r.w.fileSize)
	for f := range r.crcs {
		r.crcs[f] = r.content.fill(buf, f, 0)
		check(r.c.clients[0].Create(fileName(f), buf), "preloading")
	}

	// Warm-up: one pass of verified reads on a stream of its own, so the
	// server's popularity journal is filled and lazy set-up is done.
	warm := r.w
	warm.mix = opMix{}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gen := newOpGen(r.content.seed^0x5eed, g, n, warm)
			for i := 0; i < r.w.warmReads/n && errs[g] == nil; i++ {
				errs[g] = r.do(g, gen.next(), nil) // reads need no payload buffer
			}
		}(g)
	}
	wg.Wait()
	check(errors.Join(errs...), "warming up")
}

// prefetch issues Client.Prefetch(K) and returns how long it took.
func (r *liveRun) prefetch() time.Duration {
	if r.w.prefetchK == 0 {
		return 0
	}
	t0 := time.Now()
	got, err := r.c.clients[0].Prefetch(r.w.prefetchK)
	check(err, "prefetching")
	if got == 0 {
		check(errors.New("no file was prefetched"), "prefetching")
	}
	return time.Since(t0)
}

// runLive measures one live workload.
func runLive(w liveWorkload, o options, h *host, rep *report) {
	total := time.Duration(o.seconds * float64(time.Second))
	setUps := setUpRepeats
	if o.trace {
		// Set-up time comes from the untraced run; the traced run spends
		// the time on the layer probes instead.
		setUps = 1
		total = total * 6 / 10
	}
	r := &liveRun{w: w, h: h, content: newContentGen(o.seed), rerun: total / 4}

	var setUpS series
	for spent := time.Duration(0); ; {
		t0 := time.Now()
		r.setUp(o.dir, o.trace)
		took := time.Since(t0)
		setUpS = append(setUpS, took.Seconds())
		if spent += took; len(setUpS) == setUps || spent > setUpBudget {
			break
		}
		setUpS[len(setUpS)-1] += r.prefetch().Seconds()
		r.c.close()
	}
	defer r.c.close()
	if o.trace {
		r.startTracing()
	}

	var npf []segResult
	if w.npfArm && o.trace {
		npf = r.segments(true, false, total/4)
		total -= total / 4
	}
	prefetchTook := r.prefetch()
	setUpS[len(setUpS)-1] += prefetchTook.Seconds()
	opened := r.segments(true, o.trace, scale(total, w.openShare))
	closed := r.segments(false, o.trace, scale(total, w.closedShare))

	rep.count(npf, opened, closed)
	defer func() { rep.mismatches += r.mism.Load() }()
	rep.note("cluster: %d replicated servers, %d nodes x %d data disks, %d conns x %d clients, time scale %g, inject latency %v",
		numServers, numNodes, dataDisksPerNode, len(r.c.clients), clientsPerConn, w.spec.timeScale, w.spec.injectLatency)
	rep.note("open loop: Poisson %g ops/s, timed from scheduled arrival; closed loop: back to back", w.rate)

	rep.set("setup_s", setUpS)
	// Capacity is a closed-loop figure, except in the power-management
	// regime: back-to-back requests keep every disk awake, so cold-power
	// reports the rate its open-loop segments achieved. (Its CPU per op
	// still comes from closed-loop segments: at 300 ops/s the process is
	// mostly idle and getrusage is too coarse to divide by.)
	capacity := closed
	if w.spec.injectLatency {
		capacity = opened
	}
	rep.set("ops_per_s", each(capacity, func(s segResult) float64 { return s.completed() / s.dur.Seconds() }))
	rep.set("cpu_us_per_op", each(closed, func(s segResult) float64 { return us(s.cpu) / s.completed() }))
	rep.set("peak_rss_mb", each(opened, segResult.rss))
	rep.set("op_p50_ms", each(opened, func(s segResult) float64 { return s.quantile(0.50) }))
	rep.set("joules_per_op", each(opened, func(s segResult) float64 { return s.disk.joules() / s.completed() }))
	if !o.trace {
		return
	}

	// Per-layer view of the same workload.
	rep.setTail("op_p95_ms", 0.95, opened)
	rep.setTail("op_p99_ms", 0.99, opened)
	rep.set("transitions_per_kop", each(opened, func(s segResult) float64 {
		return 1000 * float64(s.disk.transitions()) / s.completed()
	}))
	rep.setClassLatency("read", opened, opRead)
	rep.setClassLatency("write", opened, opWrite)
	rep.setGoRuntime(closed)
	rep.set("bench.gen_lag_p99_ms", each(opened, func(s segResult) float64 {
		return percentile(series(s.lagMs).sorted(), 0.99)
	}))
	rep.setv("fs.client.dial_ms", r.c.dialMs)
	if w.prefetchK > 0 {
		rep.setv("fs.server.prefetch_s", prefetchTook.Seconds())
	}
	rep.set("fs.server.stats_rt_ms", each(opened, func(s segResult) float64 { return ms(s.disk.statsRT) }))
	rep.set("fs.node.buffer_hit_ratio", each(opened, func(s segResult) float64 { return s.disk.hitRatio() }))
	rep.set("fs.node.spinups", each(opened, func(s segResult) float64 { return float64(s.disk.spinUps) }))
	rep.set("fs.node.spindowns", each(opened, func(s segResult) float64 { return float64(s.disk.spinDowns) }))
	rep.set("fs.node.data_energy_j", each(opened, func(s segResult) float64 { return s.disk.dataJ }))
	rep.set("fs.node.buffer_energy_j", each(opened, func(s segResult) float64 { return s.disk.bufferJ }))
	rep.set("fs.node.standby_frac", each(opened, func(s segResult) float64 {
		return s.disk.standbyFrac(s.dur, w.spec.timeScale)
	}))
	if len(npf) > 0 {
		// The paper's headline at equal op counts: joules per op of the
		// two arms, same offered rate.
		perOp := func(s segResult) float64 { return s.disk.joules() / s.completed() }
		rep.set("pf_energy_saving_pct", series{100 * (1 - each(opened, perOp).median()/each(npf, perOp).median())})
	}
	r.reportTrace(rep, o, closed)
}

func scale(d time.Duration, share float64) time.Duration {
	return time.Duration(float64(d) * share)
}

// shrunk is the workload at smoke-test size.
func (w liveWorkload) shrunk() liveWorkload {
	w.files /= 8
	w.warmReads /= 8
	w.prefetchK /= 4
	return w
}

// The workloads on the TCP stack (stream-large is in stream.go).
var (
	hotRead = liveWorkload{
		name:  "hot-read",
		why:   "Zipf reads of prefetched 16 KiB files: mux, server lookup, popularity journal and the node's buffer-hit path do the work; replication, persistence, streaming and disk waits do almost none",
		spec:  clusterSpec{timeScale: 2000},
		files: 512, fileSize: 16 << 10, zipf: 1.1,
		rate: 6000, warmReads: 4096, prefetchK: 64,
		openShare: 0.5, closedShare: 0.5,
	}
	writeMix = liveWorkload{
		name:  "write-mix",
		why:   "write/read/create/delete 40/40/10/10 on a persisted namespace: replication commit and fan-out, saveState and the node's whole-table manifest rewrite dominate; a read gain that costs writes shows",
		spec:  clusterSpec{timeScale: 2000, writeBuffer: true, stateFiles: true},
		files: 1024, fileSize: 4 << 10, zipf: 0.8,
		mix: opMix{write: 0.4, create: 0.1, del: 0.1}, owned: true,
		rate: writeMixRate, warmReads: 4096,
		openShare: 0.5, closedShare: 0.5,
	}
	coldPower = liveWorkload{
		name:  "cold-power",
		why:   "power management with injected disk waits at 300 ops/s: spin-ups and the idle policy set latency and all the energy, proto/metadata CPU is negligible; a mux gain must not move it, a policy change must",
		spec:  clusterSpec{timeScale: 100, injectLatency: true, bufferCap: 1 << 20},
		files: 1024, fileSize: 16 << 10, zipf: 1.2,
		rate: 300, warmReads: 4096, prefetchK: 128,
		openShare: 0.75, closedShare: 0.25, npfArm: true,
	}
)

// writeMixRate is write-mix's offered rate: a quarter of the closed-loop
// capacity measured on the 2-core sandbox (≈ 1200 ops/s, see README.md).
// At 450 ops/s the serial commit path was already half busy and the tail
// wandered with it.
const writeMixRate = 300

// The untraced run sets up setUpRepeats times, so setup_s is a median,
// unless set-up is so slow that setUpBudget is spent first.
const (
	setUpRepeats = 3
	setUpBudget  = 3 * time.Second
)

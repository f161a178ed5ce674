package main

import (
	"encoding/binary"
	"io"
	"net"
	"sync"
	"time"

	"eevfs/internal/adaptive"
	"eevfs/internal/disk"
	"eevfs/internal/metadata"
	"eevfs/internal/placement"
	"eevfs/internal/prefetch"
	"eevfs/internal/proto"
	"eevfs/internal/rng"
	"eevfs/internal/simtime"
	"eevfs/internal/telemetry"
	"eevfs/internal/trace"
	"eevfs/internal/workload"
)

// Layer probes: each times calls into one module's public functions from
// outside, in the traced run. A probe's work is fixed, so two commits do
// the same thing; what is reported is time per call.

// prober sizes the probes: div divides every call count (1 for a real
// run; the smoke run shrinks them).
type prober struct{ div int }

func newProber(o options) prober {
	if o.smoke {
		return prober{div: 100}
	}
	return prober{div: 1}
}

func (p prober) n(calls int) int { return max(calls/p.div, 1) }

// perCall times n calls of f, best of three passes, in ns per call.
func (p prober) perCall(n int, f func(i int)) float64 {
	n = p.n(n)
	best := time.Duration(0)
	for pass := 0; pass < 3; pass++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		if d := time.Since(t0); pass == 0 || d < best {
			best = d
		}
	}
	return float64(best) / float64(n)
}

// sink keeps probe results alive.
var sink int

// probeModules runs the probes that need no cluster.
func probeModules(rep *report, procs int, p prober) {
	const names = 4096
	files := make([]metadata.FileInfo, names)
	for i := range files {
		files[i] = metadata.FileInfo{Name: fileName(i), ID: i, Size: 4096, Node: i % numNodes}
	}
	meta := metadata.NewSharded()
	rep.setv("metadata.put_ns", p.perCall(names, func(i int) { _ = meta.Put(files[i]) }))
	lookup := func(i int) {
		if fi, ok := meta.LookupName(files[i%names].Name); ok {
			sink += fi.ID
		}
	}
	rep.setv("metadata.lookup_ns", p.perCall(200_000, lookup))
	lookups := p.n(200_000)
	rep.setv("metadata.lookup_par_ns", p.perCall(1, func(int) {
		var wg sync.WaitGroup
		for g := 0; g < procs; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < lookups; i++ {
					meta.LookupName(files[i%names].Name)
				}
			}()
		}
		wg.Wait()
	})/float64(lookups))

	var journal trace.AtomicLog
	rec := trace.Record{Op: trace.Read, FileID: 7, Size: 4096}
	million := p.n(1_000_000)
	t0 := time.Now()
	for i := 0; i < million; i++ {
		journal.Append(rec)
	}
	rep.setv("trace.append_ns", float64(time.Since(t0))/float64(million))
	rep.setv("trace.scan_tail_us", p.perCall(1000, func(int) {
		journal.ScanFrom(int64(million-64), func(r trace.Record) { sink += r.FileID })
	})/1e3)

	src := rng.New(1)
	zipf := rng.NewZipf(src, names, 1.1)
	counts := make([]int, names)
	sizes := make([]int64, names)
	for i := 0; i < 100_000; i++ {
		counts[zipf.Sample()]++
	}
	for i := range sizes {
		sizes[i] = 4096
	}
	rep.setv("prefetch.select_ms", p.perCall(20, func(int) {
		ids, err := prefetch.Select(counts, sizes, 128, 0)
		check(err, "prefetch.Select")
		sink += len(ids)
	})/1e6)
	ranks := trace.RankByCount(counts)
	rep.setv("placement.roundrobin_us", p.perCall(200, func(int) {
		a, err := placement.RoundRobin(ranks, numNodes, dataDisksPerNode)
		check(err, "placement.RoundRobin")
		sink += a.NumFiles()
	})/1e3)

	d := disk.New("probe", disk.ModelType1)
	now := simtime.Time(0)
	service := simtime.Time(disk.ModelType1.ServiceTime(16 << 10))
	rep.setv("disk.step_ns", p.perCall(1_000_000, func(int) {
		d.BeginService(now)
		now += service
		d.EndService(now, 16<<10)
		now += 1
		d.Advance(now)
	}))

	rep.setv("simtime.event_ns", p.perCall(1, func(int) {
		var eng simtime.Engine
		for i := 0; i < million; i++ {
			eng.After(simtime.Duration(i&1023), func(simtime.Time) { sink++ })
			if i&1023 == 1023 {
				for eng.Step() {
				}
			}
		}
	})/float64(million))

	rep.setv("workload.synthetic_gen_ms", p.perCall(5, func(int) {
		cfg := workload.DefaultSynthetic()
		cfg.NumRequests = simRequests
		tr, err := workload.Synthetic(cfg)
		check(err, "workload.Synthetic")
		sink += len(tr.Records)
	})/1e6)
	arr, err := workload.NewArrivals(workload.OpenLoopConfig{RatePerSec: 1000, Seed: 1})
	check(err, "workload.NewArrivals")
	rep.setv("workload.arrivals_ns", p.perCall(1_000_000, func(int) { sink += int(arr.Next()) }))

	ctl := adaptive.NewController(adaptive.Defaults(), 8)
	rep.setv("adaptive.observe_ns", p.perCall(1_000_000, func(i int) {
		t := float64(i) * 0.7
		ctl.Observe(i&7, t)
		sink += int(ctl.ThresholdSec(i&7, idleThresholdSec, disk.ModelType1))
	}))

	reg := telemetry.NewRegistry()
	hist := reg.Histogram("probe.seconds", nil)
	rep.setv("telemetry.observe_ns", p.perCall(1_000_000, func(i int) { hist.Observe(float64(i&1023) * 1e-4) }))
	tracer := telemetry.NewTracer(telemetry.TracerConfig{})
	rep.setv("telemetry.span_ns", p.perCall(200_000, func(int) { tracer.StartRoot("bench", "probe").Finish() }))
}

// echoServer is the benchmark's own peer for the mux probes: it answers
// every v2 frame with an empty frame of the same id, so a round trip
// costs framing, the mux and the loopback, and nothing else.
func echoServer() (addr string, stop func()) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	check(err, "binding echo listener")
	var wg sync.WaitGroup
	var mu sync.Mutex
	var conns []net.Conn
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				var preface [4]byte
				if _, err := io.ReadFull(conn, preface[:]); err != nil || binary.BigEndian.Uint32(preface[:]) != proto.MagicV2 {
					return
				}
				for {
					_, id, _, err := proto.ReadFrameID(conn)
					if err != nil {
						return
					}
					if proto.WriteFrameID(conn, proto.TListResp, id, nil) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	}
}

// probeMux times the transport against the echo peer: one caller for the
// round trip, 16 callers on one Endpoint for the pipelined rate.
func probeMux(rep *report, p prober) {
	addr, stop := echoServer()
	defer stop()
	ep := proto.NewEndpoint(addr, nil, proto.TransportConfig{})
	defer ep.Close()
	call := func() {
		_, _, err := ep.Call(proto.TListReq, nil)
		check(err, "echo round trip")
	}
	for i := 0; i < 200; i++ {
		call()
	}
	rts := make(series, p.n(5000))
	for i := range rts {
		t0 := time.Now()
		call()
		rts[i] = us(time.Since(t0))
	}
	sorted := rts.sorted()
	rep.setv("proto.echo_rt_us_p50", percentile(sorted, 0.5))
	rep.setv("proto.echo_rt_us_p99", percentile(sorted, 0.99))

	const callers = 16
	each := p.n(4000)
	var wg sync.WaitGroup
	errs := make([]error, callers)
	t0 := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < each && errs[c] == nil; i++ {
				_, _, errs[c] = ep.Call(proto.TListReq, nil)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		check(err, "pipelined echo")
	}
	rep.setv("proto.echo_pipelined_ops_s", float64(callers*each)/time.Since(t0).Seconds())
}

// probeLive runs the probes that need the workload's cluster.
func probeLive(r *liveRun, rep *report, p prober, closed []segResult) {
	probeMux(rep, p)
	if r.w.mix.write == 0 {
		return
	}
	// Replication and persistence, after the last acked mutation.
	t0 := time.Now()
	for !r.converged() {
		if time.Since(t0) > 10*time.Second {
			rep.mismatches++
			rep.note("followers did not converge on the primary's namespace within 10 s")
			break
		}
		time.Sleep(time.Millisecond)
	}
	rep.setv("fs.repl.converge_ms", ms(time.Since(t0)))
	rep.setv("fs.repl.lag_max", r.c.daemonReg.Gauge("server.repl.lag").Value())
	manifest := float64(r.c.fileBytes("node*/manifest.json")) / numNodes
	rep.setv("fs.persist.manifest_bytes", manifest)
	rep.setv("fs.persist.state_bytes", float64(r.c.fileBytes("server*.json"))/numServers)
	// Every mutation rewrites one node's manifest whole; deletes add
	// rewrites without adding user bytes.
	var mutations, stored float64
	for _, s := range closed {
		stored += float64(len(s.lat[opWrite]) + len(s.lat[opCreate]))
		mutations += float64(len(s.lat[opWrite]) + len(s.lat[opCreate]) + len(s.lat[opDelete]))
	}
	rep.setv("fs.persist.write_amp", mutations*manifest/(stored*float64(r.w.fileSize)))
}

// converged reports whether every follower's namespace equals the
// primary's.
func (r *liveRun) converged() bool {
	want := r.c.servers[0].Files()
	for _, s := range r.c.servers[1:] {
		got := s.Files()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
	}
	return true
}

// setGoRuntime reports the Go runtime's share of the closed-loop
// segments: allocation per op and collector activity.
func (rep *report) setGoRuntime(segs []segResult) {
	var mem memCounters
	var ops float64
	for _, s := range segs {
		mem = mem.add(s.mem)
		ops += s.completed()
	}
	rep.setv("go.allocs_per_op", float64(mem.mallocs)/ops)
	rep.setv("go.alloc_bytes_per_op", float64(mem.bytes)/ops)
	rep.setv("go.gc_cycles", float64(mem.gcs))
	rep.setv("go.gc_pause_ms", float64(mem.pauseNs)/1e6)
}

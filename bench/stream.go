package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"eevfs/internal/proto"
	"eevfs/internal/telemetry"
)

const streamWhy = "32 MiB files through ReadTo/WriteFrom: stream frames, credit window, chunk pool and the node's stream handlers do the work; metadata ops are under 1% of time and hot-read bypasses all of it"

// streamWorkload is stream-large's shape: big files moved whole through
// the streaming plane, plus a small-file set read through both planes.
type streamWorkload struct {
	files    int
	fileSize int64
	small    liveWorkload
}

var streamLarge = streamWorkload{
	files: 8, fileSize: 32 << 20,
	small: liveWorkload{
		name: "stream-large/small", spec: clusterSpec{timeScale: 2000},
		files: 256, fileSize: 1 << 10, zipf: 1.1, rate: 1000, warmReads: 1024,
	},
}

func bigName(i int) string { return fmt.Sprintf("bench-big-%02d.dat", i) }

// streamRun is the large-file half: one stream goroutine per connection,
// each alternating a verified ReadTo and a WriteFrom over its own files.
type streamRun struct {
	w        streamWorkload
	c        *liveCluster
	content  *contentGen
	crcs     []uint32
	versions []uint32
	turn     []int // per stream goroutine: streams done so far
	mism     atomic.Int64
}

// setUp creates the big files by streaming them in and reads each back
// once.
func (r *streamRun) setUp() {
	r.crcs = make([]uint32, r.w.files)
	r.versions = make([]uint32, r.w.files)
	r.turn = make([]int, len(r.c.clients))
	var wg sync.WaitGroup
	errs := make([]error, len(r.c.clients))
	for g := range r.c.clients {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for f := g; f < r.w.files && errs[g] == nil; f += len(r.c.clients) {
				if errs[g] = r.c.clients[g].Create(bigName(f), []byte("placeholder")); errs[g] == nil {
					_, errs[g] = r.write(g, f)
				}
				if errs[g] == nil {
					_, errs[g] = r.read(g, f)
				}
			}
		}(g)
	}
	wg.Wait()
	check(errors.Join(errs...), "creating the large files")
}

func (r *streamRun) write(g, f int) (int64, error) {
	r.versions[f]++
	src := r.content.reader(f, r.versions[f], r.w.fileSize)
	if _, err := r.c.clients[g].WriteFrom(bigName(f), r.w.fileSize, src); err != nil {
		return 0, err
	}
	r.crcs[f] = src.crc
	return r.w.fileSize, nil
}

func (r *streamRun) read(g, f int) (int64, error) {
	var v crcWriter
	if _, _, err := r.c.clients[g].ReadTo(bigName(f), &v); err != nil {
		return 0, err
	}
	if v.n != r.w.fileSize || v.crc != r.crcs[f] {
		r.mism.Add(1)
		return 0, errMismatch
	}
	return v.n, nil
}

// segment streams for dur on every connection at once.
func (r *streamRun) segment(dur time.Duration) segResult {
	conns := len(r.c.clients)
	return r.c.drive(conns, dur, func(g int, p *segResult, _, deadline time.Time) {
		for time.Now().Before(deadline) {
			// This goroutine's files are those ≡ g (mod conns); it walks
			// them, reading each and then writing it.
			turn := r.turn[g]
			r.turn[g]++
			own := (r.w.files - g + conns - 1) / conns
			f := turn/2%own*conns + g
			kind, stream := opRead, r.read
			if turn%2 == 1 {
				kind, stream = opWrite, r.write
			}
			t0 := time.Now()
			n, err := stream(g, f)
			p.attempted++
			if err != nil {
				p.failed++
				continue
			}
			p.lat[kind] = append(p.lat[kind], ms(time.Since(t0)))
			p.bytes += n
		}
	})
}

// mbps is the stream rate of one direction: bytes moved over the mean
// time a connection spent moving them.
func (r *streamRun) mbps(s segResult, kind opKind) float64 {
	var busyMs float64
	for _, l := range s.lat[kind] {
		busyMs += l
	}
	if busyMs == 0 {
		return 0
	}
	moved := float64(len(s.lat[kind])) * float64(r.w.fileSize)
	return moved / 1e6 / (busyMs / 1e3 / float64(len(r.c.clients)))
}

// runStream measures stream-large.
func runStream(o options, h *host, rep *report) {
	w := streamLarge
	if o.smoke {
		w.fileSize = 1 << 20
		w.small = w.small.shrunk()
	}
	total := time.Duration(o.seconds * float64(time.Second))
	setUps := setUpRepeats
	if o.trace {
		setUps = 1
		total = total * 6 / 10
	}
	content := newContentGen(o.seed)
	big := &streamRun{w: w, content: content}
	small := &liveRun{w: w.small, h: h, content: content, rerun: total / 4}
	var setUpS series
	for spent := time.Duration(0); ; {
		t0 := time.Now()
		small.setUp(o.dir, o.trace)
		big.c = small.c
		big.setUp()
		took := time.Since(t0)
		setUpS = append(setUpS, took.Seconds())
		if spent += took; len(setUpS) == setUps || spent > setUpBudget {
			break
		}
		small.c.close()
	}
	defer small.c.close()

	// Shares of the measured time: the large streams, then 1 KiB files
	// through the stream plane and — in the traced run, for the comparison
	// of the two data planes — through the RPC.
	shares := [3]float64{0.7, 0.3, 0}
	if o.trace {
		shares = [3]float64{0.6, 0.2, 0.2}
	}
	large := make([]segResult, segmentsPerMode)
	for i := range large {
		large[i] = h.measure(&small.rerun, func() segResult { return big.segment(scale(total, shares[0]) / segmentsPerMode) })
	}
	small.viaStream = true
	viaStream := small.segments(false, false, scale(total, shares[1]))
	small.viaStream = false
	var viaRPC []segResult
	if o.trace {
		viaRPC = small.segments(false, false, scale(total, shares[2]))
	}

	rep.count(large, viaStream, viaRPC)
	rep.mismatches += small.mism.Load() + big.mism.Load()
	rep.note("large: %d files x %d MiB, %d concurrent streams alternating ReadTo and WriteFrom; small: %d files x %d B, closed loop through ReadTo",
		w.files, w.fileSize>>20, len(small.c.clients), w.small.files, w.small.fileSize)

	mib := func(s segResult) float64 { return float64(s.bytes) / (1 << 20) }
	rep.set("setup_s", setUpS)
	rep.set("ops_per_s", each(large, func(s segResult) float64 { return mib(s) / s.dur.Seconds() }))
	rep.set("cpu_us_per_op", each(large, func(s segResult) float64 { return us(s.cpu) / mib(s) }))
	rep.set("peak_rss_mb", each(large, segResult.rss))
	rep.set("joules_per_op", each(large, func(s segResult) float64 { return s.disk.joules() / mib(s) }))
	rep.set("op_p50_ms", each(viaStream, func(s segResult) float64 { return s.quantile(0.5) }))
	if !o.trace {
		return
	}
	rep.setTail("op_p95_ms", 0.95, viaStream)
	rep.setTail("op_p99_ms", 0.99, viaStream)

	rep.set("transitions_per_kop", each(large, func(s segResult) float64 { return 1000 * float64(s.disk.transitions()) / mib(s) }))
	rep.set("stream_read_MBps", each(large, func(s segResult) float64 { return big.mbps(s, opRead) }))
	rep.set("stream_write_MBps", each(large, func(s segResult) float64 { return big.mbps(s, opWrite) }))
	rep.set("fs.client.small_readto_us", each(viaStream, func(s segResult) float64 { return 1000 * s.quantile(0.5) }))
	rep.set("fs.client.small_read_us", each(viaRPC, func(s segResult) float64 { return 1000 * s.quantile(0.5) }))
	rep.setGoRuntime(large)
	rep.setv("fs.client.dial_ms", small.c.dialMs)
	rep.set("fs.server.stats_rt_ms", each(large, func(s segResult) float64 { return ms(s.disk.statsRT) }))
	rep.set("fs.node.data_energy_j", each(large, func(s segResult) float64 { return s.disk.dataJ }))
	rep.set("fs.node.buffer_energy_j", each(large, func(s segResult) float64 { return s.disk.bufferJ }))
	rep.set("fs.node.spinups", each(large, func(s segResult) float64 { return float64(s.disk.spinUps) }))
	rep.set("fs.node.spindowns", each(large, func(s segResult) float64 { return float64(s.disk.spinDowns) }))
	snap := small.c.clientReg.Snapshot()
	rep.setv("proto.rt.retries", float64(snap.Counters["proto.rt.retries"]))
	rep.setv("proto.rt.timeouts", float64(snap.Counters["proto.rt.timeouts"]))
	probeStream(small.c, rep, w)
	probeMux(rep, newProber(o))
}

// probeStream opens read streams straight on the owning node's Endpoint,
// below fs.Client: time to the first data byte, and the rate of a whole
// large file.
func probeStream(c *liveCluster, rep *report, w streamWorkload) {
	server := proto.NewEndpoint(c.addrs[0], nil, proto.TransportConfig{})
	defer server.Close()
	_, resp, err := server.Call(proto.TLookupReq, proto.LookupReq{Name: bigName(0)}.Encode())
	check(err, "looking a large file up")
	loc, err := proto.DecodeLookupResp(resp)
	check(err, "decoding the lookup")
	node := proto.NewEndpoint(loc.NodeAddr, nil, proto.TransportConfig{})
	defer node.Close()

	var ttfb, rate series
	buf := make([]byte, 256<<10)
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		rs, err := node.OpenReadStream(proto.StreamOpenReq{FileID: loc.FileID}, telemetry.SpanContext{})
		check(err, "opening a read stream")
		var v crcWriter
		for {
			n, err := rs.Read(buf)
			if v.n == 0 && n > 0 {
				ttfb = append(ttfb, us(time.Since(t0)))
			}
			_, _ = v.Write(buf[:n])
			if err != nil {
				break
			}
		}
		rs.Close()
		if v.n != w.fileSize {
			rep.mismatches++
			rep.note("direct stream delivered %d of %d bytes", v.n, w.fileSize)
		}
		rate = append(rate, float64(v.n)/1e6/time.Since(t0).Seconds())
	}
	rep.set("proto.stream_ttfb_us", ttfb)
	rep.set("proto.stream_MBps", rate)
}

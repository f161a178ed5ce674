package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"eevfs/internal/proto"
	"eevfs/internal/telemetry"
)

// Span names of the traced run, one per layer boundary the benchmark can
// time from outside: the whole operation, its server half and its node
// half.
const (
	spanOp     = "op"
	spanLookup = "lookup" // server round trip: lookup, write-intent lookup, create or delete
	spanNode   = "node"   // node round trip: read or write
)

// spanRec is one recorded span. Spans of one request share req; parent
// is the index of the causing span within the request (-1 for the root).
type spanRec struct {
	name       string
	kind       opKind
	req        uint64
	id, parent int
	start      time.Time
	dur        time.Duration
	closed     bool // recorded in a closed-loop segment
	fromBuffer bool
}

// tracedConn mirrors what one fs.Client holds — a connection to the
// primary and one to each node — so the traced run can issue the two
// halves of an operation itself and time each from outside.
type tracedConn struct {
	server *proto.Endpoint
	nodes  map[string]*proto.Endpoint
}

func (t *tracedConn) close() {
	t.server.Close()
	for _, ep := range t.nodes {
		ep.Close()
	}
}

// startTracing opens the traced connections: as many as the run has
// fs.Clients, with the client registry on their transports.
func (r *liveRun) startTracing() {
	tc := r.c.clientConfig().Transport
	for range r.c.clients {
		conn := &tracedConn{
			server: proto.NewEndpoint(r.c.addrs[0], nil, tc),
			nodes:  map[string]*proto.Endpoint{},
		}
		for _, n := range r.c.nodes {
			conn.nodes[n.Addr()] = proto.NewEndpoint(n.Addr(), nil, tc)
		}
		r.conns = append(r.conns, conn)
	}
	r.spans = make([][]spanRec, r.c.goroutines())
}

func (r *liveRun) stopTracing() {
	for _, c := range r.conns {
		c.close()
	}
}

// doTraced performs one operation as fs.Client would, but as the two
// Endpoint.Call halves, recording op → lookup → node spans.
func (r *liveRun) doTraced(g int, o op, buf []byte) (err error) {
	conn := r.conns[g%len(r.conns)]
	req := uint64(g)<<32 | uint64(len(r.spans[g]))
	root := spanRec{name: spanOp, kind: o.kind, req: req, parent: -1, closed: r.closedLoop, start: time.Now()}
	var children []spanRec
	call := func(name string, ep *proto.Endpoint, t proto.Type, payload []byte) ([]byte, error) {
		sp := spanRec{name: name, kind: o.kind, req: req, id: len(children) + 1, start: time.Now()}
		_, resp, err := ep.Call(t, payload)
		sp.dur = time.Since(sp.start)
		children = append(children, sp)
		return resp, err
	}
	defer func() {
		root.dur = time.Since(root.start)
		if err == nil {
			r.spans[g] = append(append(r.spans[g], root), children...)
		}
	}()

	nodeWrite := func(addr string, fileID int64, data []byte) error {
		_, err := call(spanNode, conn.nodes[addr], proto.TNodeWriteReq,
			proto.NodeWriteReq{FileID: fileID, Data: data}.Encode())
		return err
	}
	switch o.kind {
	case opRead:
		resp, err := call(spanLookup, conn.server, proto.TLookupReq, proto.LookupReq{Name: o.name}.Encode())
		if err != nil {
			return err
		}
		loc, err := proto.DecodeLookupResp(resp)
		if err != nil {
			return err
		}
		resp, err = call(spanNode, conn.nodes[loc.NodeAddr], proto.TNodeReadReq,
			proto.NodeReadReq{FileID: loc.FileID}.Encode())
		if err != nil {
			return err
		}
		read, err := proto.DecodeNodeReadResp(resp)
		if err != nil {
			return err
		}
		children[1].fromBuffer = read.FromBuffer
		return r.verify(o.file, read.Data)
	case opWrite:
		crc := r.content.fill(buf, o.file, o.version)
		resp, err := call(spanLookup, conn.server, proto.TLookupWriteReq, proto.LookupReq{Name: o.name}.Encode())
		if err != nil {
			return err
		}
		loc, err := proto.DecodeLookupResp(resp)
		if err != nil {
			return err
		}
		if err := nodeWrite(loc.NodeAddr, loc.FileID, buf); err != nil {
			return err
		}
		r.crcs[o.file] = crc
		return nil
	case opCreate:
		r.content.fill(buf, o.file, 0)
		resp, err := call(spanLookup, conn.server, proto.TCreateReq,
			proto.CreateReq{Name: o.name, Size: int64(len(buf))}.Encode())
		if err != nil {
			return err
		}
		loc, err := proto.DecodeCreateResp(resp)
		if err != nil {
			return err
		}
		return nodeWrite(loc.NodeAddr, loc.FileID, buf)
	default:
		_, err := call(spanLookup, conn.server, proto.TDeleteReq, proto.DeleteReq{Name: o.name}.Encode())
		return err
	}
}

// spanTable groups recorded durations (µs) by layer.
type spanTable map[string][]float64

func (t spanTable) add(key string, d time.Duration) { t[key] = append(t[key], us(d)) }

func (t spanTable) p(key string, q float64) float64 {
	return percentile(series(t[key]).sorted(), q)
}

// opSelf keys the op span's self time: its duration minus the part its
// children cover. The children are leaves — the benchmark sees no deeper —
// so their self time is their duration.
const opSelf = spanOp + ".self"

// layerTimes splits the spans of one mode (open- or closed-loop segments)
// into time per span name (plus opSelf) and the leaf round trips by op
// class, node reads further by buffer hit or miss.
func layerTimes(spans []spanRec, closed bool) (total, rt spanTable) {
	total, rt = spanTable{}, spanTable{}
	for i := 0; i < len(spans); {
		root := spans[i]
		j := i + 1
		var covered time.Duration
		for ; j < len(spans) && spans[j].parent != -1; j++ {
			ch := spans[j]
			if root.closed != closed {
				continue
			}
			covered += ch.dur
			total.add(ch.name, ch.dur)
			key := ch.name + "." + kindNames[ch.kind]
			if ch.name == spanNode && ch.kind == opRead {
				key += map[bool]string{true: ".hit", false: ".miss"}[ch.fromBuffer]
			}
			rt.add(key, ch.dur)
		}
		if root.closed == closed {
			total.add(spanOp, root.dur)
			total.add(opSelf, root.dur-covered)
		}
		i = j
	}
	return total, rt
}

// reportTrace turns the recorded spans into the per-layer metrics, prints
// the self-time table, writes the Chrome trace when asked, and runs the
// layer probes against the live cluster.
func (r *liveRun) reportTrace(rep *report, o options, closed []segResult) {
	defer r.stopTracing()
	var all []spanRec
	for _, s := range r.spans {
		all = append(all, s...)
	}
	// Latency per layer is read at the offered rate, like the end-to-end
	// latencies: from the open-loop segments' spans.
	total, rt := layerTimes(all, false)
	fmt.Fprintf(rep.out, "traced run: %d spans; open-loop time per request by layer (self = span − children), µs\n", len(all))
	fmt.Fprintf(rep.out, "  %-8s %10s %12s %12s %12s\n", "span", "count", "total p50", "self p50", "self p99")
	for _, row := range [][2]string{{spanOp, opSelf}, {spanLookup, spanLookup}, {spanNode, spanNode}} {
		name, self := row[0], row[1]
		fmt.Fprintf(rep.out, "  %-8s %10d %12.1f %12.1f %12.1f\n",
			name, len(total[name]), total.p(name, 0.5), total.p(self, 0.5), total.p(self, 0.99))
	}
	for metric, key := range map[string]string{
		"fs.server.lookup_rt_us_p50":  "lookup.read",
		"fs.server.lookupwrite_rt_us": "lookup.write",
		"fs.server.create_rt_us":      "lookup.create",
		"fs.server.delete_rt_us":      "lookup.delete",
		"fs.node.read_hit_rt_us":      "node.read.hit",
		"fs.node.read_miss_rt_us":     "node.read.miss",
		"fs.node.write_rt_us":         "node.write",
	} {
		if len(rt[key]) > 0 {
			rep.setv(metric, rt.p(key, 0.5))
		}
	}
	rep.setv("fs.server.lookup_rt_us_p99", rt.p("lookup.read", 0.99))

	r.compareWithClient(rep, all, closed)

	snap := r.c.clientReg.Snapshot()
	rep.setv("proto.rt.retries", float64(snap.Counters["proto.rt.retries"]))
	rep.setv("proto.rt.timeouts", float64(snap.Counters["proto.rt.timeouts"]))

	if o.traceOut != "" {
		check(writeChromeTrace(o.traceOut, all), "writing trace")
		fmt.Fprintf(rep.out, "chrome trace: %s\n", o.traceOut)
	}
	probeLive(r, rep, newProber(o), closed)
}

// compareWithClient drives the same cluster closed-loop through fs.Client
// with spans off: what the client adds on top of its two round trips, and
// what the benchmark's own spans cost.
func (r *liveRun) compareWithClient(rep *report, spans []spanRec, closed []segResult) {
	plain := r.segments(false, false, closed[0].dur*segmentsPerMode/2)
	rep.count(plain)
	perSec := func(s segResult) float64 { return s.completed() / s.dur.Seconds() }
	rep.set("bench.traced_ops_per_s", each(closed, perSec))
	rep.setv("bench.trace_overhead_frac", each(closed, perSec).median()/each(plain, perSec).median())
	if r.w.mix != (opMix{}) || r.w.spec.injectLatency {
		return // medians only add up when every op is the same kind of read, none waiting on a disk
	}
	_, busy := layerTimes(spans, true)
	nodeRead := series(append(busy["node.read.hit"], busy["node.read.miss"]...)).sorted()
	clientRead := each(plain, func(s segResult) float64 { return 1000 * s.quantile(0.5, opRead) })
	rep.setv("fs.client.read_self_us", clientRead.median()-busy.p("lookup.read", 0.5)-percentile(nodeRead, 0.5))
}

// maxTraceSpans bounds the Chrome trace file: the earliest spans are
// written, enough to see every phase of a request without a file too
// large to open.
const maxTraceSpans = 60_000

// writeChromeTrace writes the spans as Chrome trace JSON, one track per
// logical client so a request's spans nest, through the repository's own
// exporter.
func writeChromeTrace(path string, spans []spanRec) error {
	out := make([]telemetry.SpanData, len(spans))
	for i, s := range spans {
		d := telemetry.SpanData{
			TraceID: s.req + 1, SpanID: (s.req+1)<<2 | uint64(s.id),
			Service: fmt.Sprintf("client %02d", s.req>>32), Name: s.name + " " + kindNames[s.kind],
			StartNs: s.start.UnixNano(), DurS: s.dur.Seconds(),
		}
		if s.parent >= 0 {
			d.ParentID = (s.req+1)<<2 | uint64(s.parent)
		}
		out[i] = d
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].StartNs < out[j].StartNs })
	out = out[:min(len(out), maxTraceSpans)]
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeSpans(f, out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package fs

import (
	"time"

	"eevfs/internal/disk"
	"eevfs/internal/proto"
	"eevfs/internal/simtime"
	"eevfs/internal/telemetry"
)

// opName maps a request type to the short operation name used in metric
// names ("<prefix>.op.<name>.seconds" / ".errors").
func opName(t proto.Type) string {
	switch t {
	case proto.TCreateReq, proto.TNodeCreateReq:
		return "create"
	case proto.TLookupReq:
		return "lookup"
	case proto.TListReq:
		return "list"
	case proto.TDeleteReq, proto.TNodeDeleteReq:
		return "delete"
	case proto.TPrefetchReq, proto.TNodePrefetchReq:
		return "prefetch"
	case proto.TStatsReq, proto.TNodeStatsReq:
		return "stats"
	case proto.TNodeReadReq:
		return "read"
	case proto.TNodeReadAtReq:
		return "readat"
	case proto.TNodeWriteReq:
		return "write"
	case proto.TNodeHintsReq:
		return "hints"
	case proto.TLookupWriteReq:
		return "lookupwrite"
	case proto.TAccessReq:
		return "access"
	case proto.TRepAppendReq:
		return "repl.append"
	case proto.TRepSnapshotReq:
		return "repl.snapshot"
	case proto.TRepStatusReq:
		return "repl.status"
	case proto.TStreamReadReq:
		return "stream.read"
	case proto.TStreamWriteReq:
		return "stream.write"
	default:
		return "other"
	}
}

// opMetrics is what a daemon's handled requests are accounted under: a
// span per request and, pre-resolved so the dispatch path never takes the
// registry lock, one latency histogram and error counter per request
// type. serveFrames wraps every handler — RPC or stream, server or node —
// in begin and end. All handles are no-ops on a nil registry or tracer.
type opMetrics struct {
	reg     *telemetry.Registry // where each connection's write half counts
	tracer  *telemetry.Tracer
	prefix  string // "server" or "node"
	seconds map[proto.Type]*telemetry.Histogram
	errors  map[proto.Type]*telemetry.Counter
}

func newOpMetrics(reg *telemetry.Registry, tracer *telemetry.Tracer, prefix string, types []proto.Type) opMetrics {
	m := opMetrics{
		reg: reg, tracer: tracer, prefix: prefix,
		seconds: make(map[proto.Type]*telemetry.Histogram, len(types)),
		errors:  make(map[proto.Type]*telemetry.Counter, len(types)),
	}
	for _, t := range types {
		name := prefix + ".op." + opName(t)
		m.seconds[t] = reg.Histogram(name+".seconds", nil)
		m.errors[t] = reg.Counter(name + ".errors")
	}
	return m
}

// begin opens the span of one request, joined to the caller's trace when
// the frame carried a context.
func (m opMetrics) begin(t proto.Type, sc telemetry.SpanContext) (*telemetry.Span, time.Time) {
	return m.tracer.StartRemote(sc, m.prefix, m.prefix+"."+opName(t)), time.Now()
}

// end records one handled request. Unknown types (the "unexpected message
// type" error path) are simply not recorded.
func (m opMetrics) end(t proto.Type, sp *telemetry.Span, start time.Time, err error) {
	m.seconds[t].Observe(time.Since(start).Seconds())
	if err != nil {
		m.errors[t].Inc()
	}
	sp.End(err)
}

// transitionObserver returns a disk.Observer that counts spin-ups and
// spin-downs and tracks how many disks are currently spinning. Returns
// nil (no observer installed) on a nil registry.
func transitionObserver(reg *telemetry.Registry, prefix string) disk.Observer {
	if reg == nil {
		return nil
	}
	spinUps := reg.Counter(prefix + ".disk.spinups")
	spinDowns := reg.Counter(prefix + ".disk.spindowns")
	standby := reg.Gauge(prefix + ".disks.standby")
	return func(now simtime.Time, from, to disk.PowerState) {
		switch to {
		case disk.SpinningUp:
			spinUps.Inc()
		case disk.SpinningDown:
			spinDowns.Inc()
		case disk.Standby:
			standby.Add(1)
		}
		if from == disk.Standby {
			standby.Add(-1)
		}
	}
}

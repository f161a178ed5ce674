package fs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"eevfs/internal/proto"
	"eevfs/internal/telemetry"
)

// connWorkers bounds how many requests from one connection may be in
// flight in handler goroutines at once. The bound is per connection:
// one greedy pipelining peer cannot starve the daemon, and Close still
// drains quickly. 128 (up from the original 32) because the load harness
// showed tens of logical clients multiplexed onto one connection stalling
// behind the cap long before the node's disks were busy (DESIGN.md §21).
const connWorkers = 128

// connStreams bounds how many streams one connection may hold open at
// once. Stream handlers are deliberately NOT drawn from the RPC worker
// pool: a handler parks in SendChunk for as long as its peer dawdles,
// and the demux read loop must never block on slot acquisition — it has
// to keep reading inbound credit frames or every running stream on the
// connection wedges behind the very loop that would feed it. Excess
// opens are rejected with a typed error; the connection stays healthy.
const connStreams = 64

// acceptLoops is how many goroutines accept on a daemon's listener in
// parallel, so a burst of dials is not serialized behind one loop's
// per-connection bookkeeping.
const acceptLoops = 4

// acceptConns runs one accept loop on ln, handing each connection to
// accept. Transient errors — file-table exhaustion, handshakes aborted
// under heavy fan-in — are retried with capped exponential backoff
// instead of silently killing the listener (the original loop returned
// on any error, so one EMFILE burst left a daemon alive but deaf); only
// the listener's own closure ends the loop. Several acceptConns
// goroutines may share one listener: Accept is safe to call
// concurrently, and parallel loops keep the post-accept bookkeeping
// (connection registration, handler spawn) off the accept rate's
// critical path.
func acceptConns(ln net.Listener, logf func(format string, args ...any), accept func(net.Conn)) {
	var delay time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			if delay == 0 {
				delay = 5 * time.Millisecond
			} else if delay *= 2; delay > time.Second {
				delay = time.Second
			}
			logf("accept: %v (retrying in %v)", err, delay)
			time.Sleep(delay)
			continue
		}
		delay = 0
		accept(conn)
	}
}

// listener is the accept side of both daemons: accept loops on one
// net.Listener, the set of live connections, and the two halves of Close
// — shut stops accepting and closes every connection, wait returns once
// the last handler has. mu orders a connection's registration against
// shut, so none is accepted and then missed by it.
type listener struct {
	ln net.Listener
	wg sync.WaitGroup

	mu      sync.Mutex
	closing bool
	conns   map[net.Conn]struct{}
}

// listen starts acceptLoops accept loops on ln; each connection is
// served in its own goroutine and closed when serve returns.
func (l *listener) listen(ln net.Listener, logf func(format string, args ...any), serve func(net.Conn)) {
	l.ln, l.conns = ln, make(map[net.Conn]struct{})
	handle := func(conn net.Conn) {
		l.mu.Lock()
		if l.closing {
			l.mu.Unlock()
			conn.Close()
			return
		}
		l.conns[conn] = struct{}{}
		l.wg.Add(1)
		l.mu.Unlock()
		go func() {
			defer l.wg.Done()
			serve(conn)
			l.mu.Lock()
			delete(l.conns, conn)
			l.mu.Unlock()
			conn.Close()
		}()
	}
	l.wg.Add(acceptLoops)
	for i := 0; i < acceptLoops; i++ {
		go func() {
			defer l.wg.Done()
			acceptConns(ln, logf, handle)
		}()
	}
}

// Addr returns the bound listen address.
func (l *listener) Addr() string { return l.ln.Addr().String() }

// shut reports false, having done nothing, on every call but the first.
func (l *listener) shut() (first bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closing {
		return false, nil
	}
	l.closing = true
	for c := range l.conns {
		c.Close()
	}
	return true, l.ln.Close()
}

func (l *listener) wait() { l.wg.Wait() }

// closed reports whether shut has been called.
func (l *listener) closed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closing
}

// reply is a handler's response frame. pooled marks a body built in a
// chunk from the pool, which serveFrames gives back once it is sent.
type reply struct {
	t      proto.Type
	body   []byte
	pooled bool
}

// handlerFunc answers one RPC under its span with the response frame. A
// returned error becomes a TError frame; the connection stays up either
// way (malformed payloads answer with an error rather than a hangup).
type handlerFunc func(payload []byte, sp *telemetry.Span) (reply, error)

// streamHandlerFunc serves one open stream (DESIGN.md §19): req is the
// opening frame's body and st this side's end of the stream. The handler
// owns the stream until it returns, having sent End on success; a
// returned error is sent as the Abort carrying it — the dialing side
// relies on that terminal frame to retire the stream id.
type streamHandlerFunc func(req proto.StreamOpenReq, sp *telemetry.Span, st *proto.Stream) error

// op is one row of a daemon's op table: the name a request type is
// metered and traced under, and what answers it — an RPC handler or, for
// a request that opens a stream, a stream handler.
type op struct {
	name   string
	rpc    handlerFunc
	stream streamHandlerFunc

	// Built from name by newOpTable: the span "<prefix>.<name>" and the
	// metrics "<prefix>.op.<name>.seconds" and ".errors".
	span    string
	seconds *telemetry.Histogram
	errors  *telemetry.Counter
}

// opTable is a daemon's ops indexed by request type, the traced flag
// cleared, and where their spans and its connections' write halves count.
// serveFrames answers each request from its row, under the row's span,
// latency histogram and error counter; a type without a row gets a
// TError. All handles are no-ops on a nil registry or tracer.
type opTable struct {
	prefix string // "server" or "node"
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	rows   [proto.FlagTraced]op
}

// newOpTable builds a daemon's table from its rows, resolving every
// row's span name and metric handles once, so no request pays for them.
func newOpTable(prefix string, reg *telemetry.Registry, tracer *telemetry.Tracer, rows map[proto.Type]op) *opTable {
	tbl := &opTable{prefix: prefix, reg: reg, tracer: tracer}
	for t, r := range rows {
		metric := prefix + ".op." + r.name
		r.span = prefix + "." + r.name
		r.seconds = reg.Histogram(metric+".seconds", nil)
		r.errors = reg.Counter(metric + ".errors")
		tbl.rows[t] = r
	}
	return tbl
}

// begin opens the span of one request, joined to the caller's trace when
// the frame carried a context.
func (tbl *opTable) begin(r *op, sc telemetry.SpanContext) (*telemetry.Span, time.Time) {
	return tbl.tracer.StartRemote(sc, tbl.prefix, r.span), time.Now()
}

// end records one handled request.
func (r *op) end(sp *telemetry.Span, start time.Time, err error) {
	r.seconds.Observe(time.Since(start).Seconds())
	if err != nil {
		r.errors.Inc()
	}
	sp.End(err)
}

// answer is the RPC handler of a row whose request and response have
// codecs: decode the payload, handle it under the request's span, encode
// the response as type rt.
func answer[Q any, R interface{ Encode() []byte }](decode func([]byte) (Q, error), rt proto.Type,
	handle func(Q, *telemetry.Span) (R, error)) handlerFunc {
	return func(payload []byte, sp *telemetry.Span) (reply, error) {
		req, err := decode(payload)
		if err != nil {
			return reply{}, err
		}
		resp, err := handle(req, sp)
		if err != nil {
			return reply{}, err
		}
		return reply{t: rt, body: resp.Encode()}, nil
	}
}

// noBody is the response of an op that answers with its type alone.
type noBody struct{}

func (noBody) Encode() []byte { return nil }

// errStreamConnDead reports that the connection under a stream died while
// its handler was mid-transfer.
var errStreamConnDead = errors.New("fs: stream connection closed")

// serveFrames drives one accepted connection until it dies (DESIGN.md
// §15), answering each request from its row of ops. The peer opens with
// the 4-byte EEV2 preface; a connection that opens with anything else is
// closed. An RPC goes to a bounded pool of worker goroutines; responses
// carry the request's id and leave through the connection's write half in
// whatever order the handlers finish. A stream open spawns a dedicated
// handler goroutine outside the worker pool (bounded by connStreams
// instead), and later frames of an open stream are delivered to it by id.
// A type without a row is answered with a typed TError and the connection
// stays healthy (the metadata server, say, does not serve file bytes).
//
// writeTimeout bounds each write so a stalled peer cannot pin a handler
// goroutine; a failed write, like a stream's protocol violation, closes
// the socket, and the read loop fails every open stream on its way out.
func serveFrames(conn net.Conn, writeTimeout time.Duration, ops *opTable) {
	in := proto.NewReadHalf(conn)
	var preface [4]byte
	if _, err := io.ReadFull(in, preface[:]); err != nil || binary.BigEndian.Uint32(preface[:]) != proto.MagicV2 {
		return
	}
	out := proto.NewFrameWriter(conn, writeTimeout, ops.reg, func(error) { conn.Close() })
	var (
		wg sync.WaitGroup
		// One handler goroutine per in-flight request, bounded by a slot
		// semaphore; not a persistent worker pool (DESIGN.md §21).
		slots = make(chan struct{}, connWorkers)

		smu     sync.Mutex
		streams = make(map[uint32]*proto.Stream)
	)

	for {
		t, id, n, err := proto.ReadFrameHeader(in)
		if err != nil {
			break
		}
		base := t &^ proto.FlagTraced
		switch base {
		case proto.TDataFrame, proto.TStreamCredit, proto.TStreamEnd, proto.TStreamAbort:
			smu.Lock()
			st := streams[id]
			smu.Unlock()
			if st == nil {
				// Late frame for a stream whose handler already finished
				// (e.g. an abort racing our end): discard, keep framing.
				_, err = in.Discard(n)
			} else {
				// An error here is the peer breaking the protocol — it
				// flooded past the window it was granted, say — and the
				// connection can no longer be trusted.
				err = st.Deliver(base, n, in)
			}
			if err != nil {
				goto dead
			}
			continue
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(in, payload); err != nil {
			break
		}
		switch row := &ops.rows[base]; {
		case row.stream != nil:
			_, payload, sc, err := proto.ExtractContext(t, payload)
			var req proto.StreamOpenReq
			if err == nil {
				req, err = proto.DecodeStreamOpenReq(payload)
			}
			if err != nil {
				// The connection stays healthy, and so does every stream
				// on it, unless the answer cannot be written.
				_ = out.SendFrame(proto.TError, id, errorPayload(err))
				continue
			}
			st := proto.NewStream(id, out, proto.StreamStallTimeout(writeTimeout), proto.ClampStreamWindow(req.Window))
			smu.Lock()
			_, dup := streams[id]
			full := len(streams) >= connStreams
			if !dup && !full {
				streams[id] = st
			}
			smu.Unlock()
			if dup {
				// Duplicate open for a live id: protocol violation.
				goto dead
			}
			if full {
				err := fmt.Errorf("%w: too many open streams on one connection", ErrNodeUnavailable)
				_ = out.SendFrame(proto.TError, id, errorPayload(err))
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				sp, start := ops.begin(row, sc)
				err := row.stream(req, sp, st)
				if err != nil {
					st.Abort(errorPayload(err))
				}
				row.end(sp, start, err)
				smu.Lock()
				delete(streams, id)
				smu.Unlock()
				st.Release()
			}()
		case row.rpc != nil:
			slots <- struct{}{}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-slots }()
				_, payload, sc, herr := proto.ExtractContext(t, payload)
				var r reply
				if herr == nil {
					sp, start := ops.begin(row, sc)
					r, herr = row.rpc(payload, sp)
					row.end(sp, start, herr)
				}
				if herr != nil {
					r = reply{t: proto.TError, body: errorPayload(herr)}
				}
				_ = out.SendFrame(r.t, id, r.body) // on failure the connection is closed, which ends the read loop too
				if r.pooled {
					proto.PutChunk(r.body)
				}
			}()
		default:
			err := fmt.Errorf("fs: %s got unexpected message type %d", ops.prefix, base)
			_ = out.SendFrame(proto.TError, id, errorPayload(err))
		}
	}
dead:
	conn.Close()
	// Fail every open stream so mid-transfer handlers unblock, then wait
	// for all workers (RPC and stream) to finish.
	smu.Lock()
	for _, st := range streams {
		st.Fail(errStreamConnDead)
	}
	smu.Unlock()
	wg.Wait()
}

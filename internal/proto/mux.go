// The multiplexing layer under Endpoint: one muxConn owns one live v2
// connection generation. A writer goroutine drains an outbound frame
// queue, a demux reader correlates response frames back to waiting
// callers by request id, and any transport fault — read error, write
// error, unknown id, per-request timeout — poisons the whole generation:
// every outstanding request fails with the same typed error, the socket
// is closed, and the next Call on the owning Endpoint dials a fresh
// generation. That all-or-nothing failure rule is what keeps the
// paper's "one persistent connection per peer" model sane under
// pipelining: once a frame boundary is in doubt, no later response on
// the stream can be trusted.
package proto

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// muxWriteQueue bounds the outbound frame queue of one connection;
// enqueueing callers beyond it block (backpressure), and the live depth
// feeds the proto.queue.depth histogram.
const muxWriteQueue = 64

// wireFrame is one outbound request frame. pooled marks a payload
// borrowed from the chunk pool; the write loop returns it after the
// frame hits the socket.
type wireFrame struct {
	t       Type
	id      uint32
	payload []byte
	pooled  bool
}

// wireResult is one demuxed response (or the poisoning error).
type wireResult struct {
	t       Type
	payload []byte
	err     error
}

// errRTTimeout is the per-request deadline expiry. It satisfies
// net.Error so TransportError.Timeout() classifies it like a socket
// timeout.
type errRTTimeout struct{}

func (errRTTimeout) Error() string   { return "proto: round trip deadline exceeded" }
func (errRTTimeout) Timeout() bool   { return true }
func (errRTTimeout) Temporary() bool { return true }

// muxConn is one connection generation: socket + writer + demux reader +
// the pending-request table. Once poisoned it never recovers; the
// Endpoint replaces it wholesale.
type muxConn struct {
	conn    net.Conn
	met     epMetrics
	writeCh chan wireFrame
	done    chan struct{} // closed exactly once, on poison

	mu      sync.Mutex
	pending map[uint32]chan wireResult
	streams map[uint32]*muxStream
	nextID  uint32
	err     error // the poisoning fault (nil while healthy)
}

// streamMsg is one inbound frame of an open stream. TDataFrame payloads
// are pooled chunk buffers (the consumer returns them via PutChunk);
// control-frame payloads are plain allocations.
type streamMsg struct {
	t       Type
	payload []byte
}

// muxStream is one registered stream id on a connection generation: a
// bounded inbound queue sized by the flow-control window, plus the
// terminal fault. It lives in muxConn.streams from registerStream until
// removeStream (or the generation's poison).
type muxStream struct {
	id   uint32
	recv chan streamMsg
	done chan struct{} // closed exactly once, on fail

	mu      sync.Mutex
	err     error
	discard bool // owner closed early: drop inbound frames on the floor
}

// fail records the stream's terminal fault and wakes its owner. Safe to
// call more than once; the first error wins.
func (st *muxStream) fail(err error) {
	st.mu.Lock()
	if st.err != nil {
		st.mu.Unlock()
		return
	}
	st.err = err
	st.mu.Unlock()
	close(st.done)
}

// fault returns the terminal error (nil while live).
func (st *muxStream) fault() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.err
}

// setDiscard flips the stream into discard mode: the demux reader drops
// its inbound frames (returning data chunks to the pool) and retires the
// id when the peer's terminal frame arrives. Used by early Close, where
// the peer may still have frames in flight for this id.
func (st *muxStream) setDiscard() {
	st.mu.Lock()
	st.discard = true
	st.mu.Unlock()
}

// discarding reports whether the stream is in discard mode.
func (st *muxStream) discarding() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.discard
}

// newMuxConn wraps an established socket and starts the writer and
// demux reader. The v2 preface is the writer's first act, so Call never
// blocks on a slow peer outside its own deadline.
func newMuxConn(conn net.Conn, met epMetrics) *muxConn {
	m := &muxConn{
		conn:    conn,
		met:     met,
		writeCh: make(chan wireFrame, muxWriteQueue),
		done:    make(chan struct{}),
		pending: make(map[uint32]chan wireResult),
		streams: make(map[uint32]*muxStream),
	}
	go m.writeLoop()
	go m.readLoop()
	return m
}

// alive reports whether the generation can still carry requests.
func (m *muxConn) alive() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err == nil
}

// poison kills the generation: it records the fault, closes the socket
// (unblocking both loops), and fails every outstanding request AND every
// open stream with the same typed error — a corrupted or dead connection
// invalidates all in-flight ids, not just the one that tripped over it.
func (m *muxConn) poison(err error) {
	m.mu.Lock()
	if m.err != nil {
		m.mu.Unlock()
		return
	}
	m.err = err
	orphans := m.pending
	m.pending = nil
	doomed := m.streams
	m.streams = nil
	close(m.done)
	m.mu.Unlock()
	m.conn.Close()
	for _, ch := range orphans {
		ch <- wireResult{err: err}
	}
	for _, st := range doomed {
		st.fail(err)
	}
}

// hasStreams reports whether the generation currently carries open
// streams (so bulk data frames may be queued ahead of RPC responses).
func (m *muxConn) hasStreams() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.streams) > 0
}

// fault returns the poisoning error (nil while healthy).
func (m *muxConn) fault() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// writeLoop sends the preface and then drains the outbound queue. A
// write error poisons the generation.
func (m *muxConn) writeLoop() {
	if err := WritePreface(m.conn); err != nil {
		m.poison(err)
		return
	}
	for {
		select {
		case f := <-m.writeCh:
			err := WriteFrameID(m.conn, f.t, f.id, f.payload)
			if f.pooled {
				PutChunk(f.payload)
			}
			if err != nil {
				m.poison(err)
				return
			}
		case <-m.done:
			return
		}
	}
}

// readLoop demuxes inbound frames: frames for a registered stream id are
// routed to that stream's bounded queue (data chunks land in pooled
// buffers); everything else is a response correlated to a waiting
// round-trip caller. A read error poisons the generation; so does a
// frame carrying an id with no owner — on a healthy connection every id
// has exactly one owner, so an unknown id means the peer is lying.
func (m *muxConn) readLoop() {
	for {
		t, id, n, err := ReadFrameHeader(m.conn)
		if err != nil {
			m.poison(err)
			return
		}
		m.mu.Lock()
		st, isStream := m.streams[id]
		var ch chan wireResult
		var isPending bool
		if !isStream {
			ch, isPending = m.pending[id]
			if isPending {
				delete(m.pending, id)
			}
		}
		m.mu.Unlock()
		if isStream {
			if !m.readStreamFrame(st, t, n) {
				return
			}
			continue
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(m.conn, payload); err != nil {
			m.poison(err)
			return
		}
		if !isPending {
			m.poison(fmt.Errorf("proto: response for unknown request id %d", id))
			return
		}
		ch <- wireResult{t: t, payload: payload}
	}
}

// streamFrameType reports whether t is legal on an open stream id.
func streamFrameType(t Type) bool {
	switch t {
	case TDataFrame, TStreamOpenResp, TStreamEnd, TStreamAbort, TStreamCredit, TError:
		return true
	}
	return false
}

// streamTerminal reports whether t retires a stream id: after it the
// peer sends nothing further for the id.
func streamTerminal(t Type) bool {
	return t == TStreamEnd || t == TStreamAbort || t == TError
}

// readStreamFrame consumes one frame addressed to a registered stream.
// Data payloads are read into pooled chunk buffers. Returns false when
// the frame poisoned the generation (the read loop must exit).
func (m *muxConn) readStreamFrame(st *muxStream, t Type, n int) bool {
	if !streamFrameType(t) {
		m.poison(fmt.Errorf("proto: frame type %d is illegal on stream id %d", t, st.id))
		return false
	}
	var payload []byte
	if t == TDataFrame {
		payload = GetChunk(n)
	} else {
		payload = make([]byte, n)
	}
	if _, err := io.ReadFull(m.conn, payload); err != nil {
		if t == TDataFrame {
			PutChunk(payload)
		}
		m.poison(err)
		return false
	}
	if st.discarding() {
		// The owner closed early; drop the frame, and retire the id once
		// the peer's terminal frame confirms nothing more is in flight.
		if t == TDataFrame {
			PutChunk(payload)
		}
		if streamTerminal(t) {
			m.removeStream(st)
		}
		return true
	}
	select {
	case st.recv <- streamMsg{t: t, payload: payload}:
		return true
	default:
	}
	// Queue full. If the stream already failed (generation poisoned in a
	// race) the frame is moot; otherwise the peer overran the granted
	// credit window, which is a protocol violation.
	if t == TDataFrame {
		PutChunk(payload)
	}
	select {
	case <-st.done:
		return true
	default:
	}
	m.poison(fmt.Errorf("proto: stream %d receive overrun (flow-control credit violation)", st.id))
	return false
}

// send enqueues one outbound frame, blocking on queue backpressure. A
// poisoned generation returns its fault instead.
func (m *muxConn) send(f wireFrame) error {
	select {
	case m.writeCh <- f:
		return nil
	case <-m.done:
		return m.fault()
	}
}

// registerStream claims a fresh request id for a stream. The inbound
// queue holds the full credit window plus slack for control frames; the
// demux reader treats overflow as a peer flow-control violation.
func (m *muxConn) registerStream(window int) (*muxStream, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return nil, m.err
	}
	m.nextID++
	st := &muxStream{
		id:   m.nextID,
		recv: make(chan streamMsg, window+streamRecvSlack),
		done: make(chan struct{}),
	}
	m.streams[st.id] = st
	return st, nil
}

// removeStream retires a stream id and drains its queue, returning any
// buffered data chunks to the pool. Idempotent; a nil streams map (the
// generation already poisoned) is a no-op delete.
func (m *muxConn) removeStream(st *muxStream) {
	m.mu.Lock()
	delete(m.streams, st.id)
	m.mu.Unlock()
	for {
		select {
		case msg := <-st.recv:
			if msg.t == TDataFrame {
				PutChunk(msg.payload)
			}
		default:
			return
		}
	}
}

// register claims a fresh request id and its response channel. The
// channel has capacity 1 and receives exactly one value: the demuxed
// response, or the poisoning error.
func (m *muxConn) register() (uint32, chan wireResult, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return 0, nil, m.err
	}
	m.nextID++
	id := m.nextID
	ch := make(chan wireResult, 1)
	m.pending[id] = ch
	return id, ch, nil
}

// roundTrip runs one multiplexed request: register an id, enqueue the
// frame, await the correlated response. The timeout poisons the whole
// generation — a response that never arrived leaves the stream's frame
// boundary in doubt.
func (m *muxConn) roundTrip(t Type, payload []byte, timeout time.Duration) (Type, []byte, error) {
	id, ch, err := m.register()
	if err != nil {
		return 0, nil, err
	}
	m.met.inflight.Add(1)
	defer m.met.inflight.Add(-1)
	m.met.queueDepth.Observe(float64(len(m.writeCh)))

	select {
	case m.writeCh <- wireFrame{t: t, id: id, payload: payload}:
	case <-m.done:
		// poison already delivered the error to ch.
		res := <-ch
		return 0, nil, res.err
	}

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		if res.err != nil {
			return 0, nil, res.err
		}
		if res.t == TError {
			em, derr := DecodeErrorMsg(res.payload)
			if derr != nil {
				err := fmt.Errorf("proto: undecodable error response: %w", derr)
				m.poison(err)
				return 0, nil, err
			}
			return 0, nil, &RemoteError{Code: em.Code, Msg: em.Msg, Redirect: em.Redirect}
		}
		return res.t, res.payload, nil
	case <-timer.C:
		m.poison(errRTTimeout{})
		<-ch // poison (or a photo-finish reader delivery) settles the channel
		return 0, nil, errRTTimeout{}
	}
}

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
	"errors"
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
	streams map[uint32]*Stream
	nextID  uint32
	err     error // the poisoning fault (nil while healthy)
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
		streams: make(map[uint32]*Stream),
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
		st.Fail(err)
	}
}

// Kill implements StreamConn: a stream's protocol violation or stall
// poisons the generation.
func (m *muxConn) Kill(err error) { m.poison(err) }

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
// delivered to that stream, and the peer's terminal frame retires the id;
// everything else is a response correlated to a waiting round-trip
// caller. A read error poisons the generation; so does a frame carrying
// an id with no owner — on a healthy connection every id has exactly one
// owner, so an unknown id means the peer is lying.
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
			if err := st.Deliver(t, n, m.conn); err != nil {
				m.poison(err)
				return
			}
			if streamTerminal(t) {
				m.mu.Lock()
				delete(m.streams, id)
				m.mu.Unlock()
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

// SendFrame implements StreamConn, the dialing side's way: the frame is
// queued for the writer goroutine, blocking on queue backpressure, a data
// payload copied into a pooled chunk first (the write loop returns it
// once the frame hits the socket). A poisoned generation returns its
// fault instead.
func (m *muxConn) SendFrame(t Type, id uint32, payload []byte) error {
	f := wireFrame{t: t, id: id, payload: payload, pooled: t == TDataFrame}
	if f.pooled {
		f.payload = GetChunk(len(payload))
		copy(f.payload, payload)
	}
	select {
	case m.writeCh <- f:
		return nil
	case <-m.done:
		if f.pooled {
			PutChunk(f.payload)
		}
		return m.fault()
	}
}

// registerStream claims a fresh request id for a stream granting the
// peer window data frames of at most limit bytes.
func (m *muxConn) registerStream(window, limit int, stall time.Duration) (*Stream, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return nil, m.err
	}
	m.nextID++
	st := NewStream(m.nextID, m, stall, window)
	st.limit = limit
	m.streams[st.id] = st
	return st, nil
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
			err := remoteError(res.payload)
			var re *RemoteError
			if !errors.As(err, &re) {
				m.poison(err)
			}
			return 0, nil, err
		}
		return res.t, res.payload, nil
	case <-timer.C:
		m.poison(errRTTimeout{})
		<-ch // poison (or a photo-finish reader delivery) settles the channel
		return 0, nil, errRTTimeout{}
	}
}

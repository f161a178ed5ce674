// The multiplexing layer under Endpoint: one muxConn owns one live
// connection generation. Callers put their request frames on the
// connection's write half themselves (wire.go), a demux reader correlates
// response frames back to waiting callers by request id, and any
// transport fault — read error, write error, unknown id, per-request
// timeout — poisons the whole generation (DESIGN.md §15): once a frame
// boundary is in doubt, no later response on the stream can be trusted.
package proto

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

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

// muxConn is one connection generation: socket + write half + demux
// reader + the pending-request table. Once poisoned it never recovers;
// the Endpoint replaces it wholesale.
type muxConn struct {
	conn net.Conn
	met  epMetrics
	w    *FrameWriter  // its fault hook is poison
	done chan struct{} // closed exactly once, on poison

	mu      sync.Mutex
	pending map[uint32]chan wireResult
	streams map[uint32]*Stream
	nextID  uint32
	err     error // the poisoning fault (nil while healthy)
}

// newMuxConn wraps an established socket and starts the demux reader.
// The preface leaves with the first frame, every write under writeTimeout.
func newMuxConn(conn net.Conn, met epMetrics, writeTimeout time.Duration) *muxConn {
	m := &muxConn{
		conn:    conn,
		met:     met,
		done:    make(chan struct{}),
		pending: make(map[uint32]chan wireResult),
		streams: make(map[uint32]*Stream),
	}
	m.w = NewFrameWriter(conn, writeTimeout, met.reg, m.poison)
	m.w.pend = binary.BigEndian.AppendUint32(nil, MagicV2) // dialing never waits on a write
	go m.readLoop()
	return m
}

// poison kills the generation: it records the fault, closes the socket
// (unblocking the reader and whoever is writing), and fails every
// outstanding request AND every open stream with the same typed error — a
// corrupted or dead connection invalidates all in-flight ids, not just
// the one that tripped over it.
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
	m.w.Kill(err) // later sends fail with err; its call back here is a no-op
	for _, ch := range orphans {
		ch <- wireResult{err: err}
	}
	for _, st := range doomed {
		st.Fail(err)
	}
}

// readLoop demuxes inbound frames: frames for a registered stream id are
// delivered to that stream, and the peer's terminal frame retires the id;
// everything else is a response correlated to a waiting round-trip
// caller. A read error poisons the generation; so does a frame carrying
// an id with no owner — on a healthy connection every id has exactly one
// owner, so an unknown id means the peer is lying.
func (m *muxConn) readLoop() {
	in := NewReadHalf(m.conn)
	for {
		t, id, n, err := ReadFrameHeader(in)
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
			if err := st.Deliver(t, n, in); err != nil {
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
		if _, err := io.ReadFull(in, payload); err != nil {
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

// registerStream claims a fresh request id for a stream granting the
// peer window data frames of at most limit bytes.
func (m *muxConn) registerStream(window, limit int, stall time.Duration) (*Stream, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return nil, m.err
	}
	m.nextID++
	st := NewStream(m.nextID, m.w, stall, window)
	st.limit = limit
	m.streams[st.id] = st
	return st, nil
}

// call is one round trip's rendezvous, pooled: the channel takes exactly
// one value per registration — the demuxed response, or the poisoning
// error — and every way out of roundTrip has received it.
type call struct {
	ch    chan wireResult
	timer *time.Timer
}

var callPool = sync.Pool{New: func() any {
	return &call{ch: make(chan wireResult, 1), timer: time.NewTimer(time.Hour)} // roundTrip resets it
}}

// register claims a fresh request id answered on ch, and reports whether
// the generation carries open streams.
func (m *muxConn) register(ch chan wireResult) (id uint32, streams bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return 0, false, m.err
	}
	m.nextID++
	m.pending[m.nextID] = ch
	return m.nextID, len(m.streams) > 0, nil
}

// roundTrip runs one multiplexed request: register an id, send the
// frame, await the correlated response. The deadline starts before the
// send, so time spent flushing other callers' frames counts against it;
// on a generation carrying open streams it is the stream stall bound, as
// the response legitimately queues behind their bulk data frames. The
// timeout poisons the whole generation, healthy streams included — a
// response that never arrived leaves the frame boundary in doubt.
func (m *muxConn) roundTrip(t Type, payload []byte, timeout time.Duration) (Type, []byte, error) {
	c := callPool.Get().(*call)
	defer callPool.Put(c)
	id, streams, err := m.register(c.ch)
	if err != nil {
		return 0, nil, err
	}
	if streams {
		timeout = StreamStallTimeout(timeout)
	}
	m.met.inflight.Add(1)
	defer m.met.inflight.Add(-1)

	c.timer.Reset(timeout)
	defer c.timer.Stop()
	if err := m.w.SendFrame(t, id, payload); err != nil {
		m.poison(err) // to no effect, unless the frame was refused unsent
	}
	select {
	case res := <-c.ch:
		if res.err != nil {
			return 0, nil, res.err
		}
		if res.t == TError { // undecodable, it is a transport fault to attempt
			return 0, nil, remoteError(res.payload)
		}
		return res.t, res.payload, nil
	case <-c.timer.C:
		m.poison(errRTTimeout{})
		<-c.ch // poison (or a photo-finish reader delivery) settles the channel
		return 0, nil, errRTTimeout{}
	}
}

// The two halves of a connection (DESIGN.md §15), the same under the side
// that dialed (muxConn) and the side that accepted (fs.serveFrames). A
// connection moves batches, not frames.
package proto

import (
	"bufio"
	"io"
	"net"
	"sync"
	"time"

	"eevfs/internal/telemetry"
)

const (
	// writeBacklog bounds the bytes queued behind a write in progress; a
	// sender that would exceed it waits for the flusher to take a batch.
	writeBacklog = 256 << 10
	// directPayload is the payload length from which a frame is not
	// copied into the backlog: its sender takes the flush itself and the
	// payload goes from the caller's buffer to the socket, so a stream's
	// data chunks cost the connection no memory.
	directPayload = 32 << 10
	// readBuffer is small on purpose: a payload longer than it is read
	// straight into its destination.
	readBuffer = 4 << 10
)

// NewReadHalf is the read half of a connection: a header and a small body
// — or several pipelined frames — cost its demux loop one read.
func NewReadHalf(r io.Reader) *bufio.Reader { return bufio.NewReaderSize(r, readBuffer) }

// FrameWriter is the write half of one connection, and what a Stream
// holds of it (StreamConn). Senders append whole frames to the backlog
// under one lock; whoever finds no flush in progress becomes the flusher
// and writes until the backlog stays empty — no writer goroutine, no hop
// to one. Every write is under the write deadline. The first fault — a
// failed write, or what Kill is handed — fails every later send and runs
// the owner's hook, once.
type FrameWriter struct {
	conn    net.Conn
	timeout time.Duration // per write; 0 is none
	onFail  func(error)
	depth   *telemetry.Histogram // frames pending as each is queued
	flushes *telemetry.Counter

	mu       sync.Mutex
	room     sync.Cond // the flusher took a batch, or stopped flushing
	pend     []byte    // whole frames waiting for the flusher's next write
	spare    []byte    // the batch before, emptied: pend's next backing
	flushing bool
	err      error
	queued   int // frames in pend

	// plant is the conformance suite's planted bug, tests only:
	// plantDropQueued loses what senders queued during a write.
	plant string
}

const plantDropQueued = "drop-queued"

// NewFrameWriter makes the write half of conn. onFail tears the connection
// down; reg (nil: nowhere) gets proto.queue.depth and proto.write.flushes.
func NewFrameWriter(conn net.Conn, timeout time.Duration, reg *telemetry.Registry, onFail func(error)) *FrameWriter {
	w := &FrameWriter{
		conn: conn, timeout: timeout, onFail: onFail,
		depth:   reg.Histogram("proto.queue.depth", nil),
		flushes: reg.Counter("proto.write.flushes"),
	}
	w.room.L = &w.mu
	return w
}

// SendFrame implements StreamConn: on return the frame is on the wire or
// queued behind the write in progress; the payload is the caller's again.
func (w *FrameWriter) SendFrame(t Type, id uint32, payload []byte) error {
	n := v2HeaderLen + len(payload)
	if n > MaxFrame {
		return ErrFrameTooLarge
	}
	direct := len(payload) >= directPayload
	w.mu.Lock()
	for w.err == nil && w.flushing && (direct || len(w.pend)+4+n > writeBacklog) {
		w.room.Wait()
	}
	if w.err != nil {
		w.mu.Unlock()
		return w.err
	}
	w.pend = appendFrameHeader(w.pend, t, id, len(payload))
	if !direct {
		w.pend = append(w.pend, payload...)
		payload = nil
	}
	w.depth.Observe(float64(w.queued))
	w.queued++
	if w.flushing {
		w.mu.Unlock()
		return nil
	}
	return w.flush(payload)
}

// flush writes the backlog, tail behind the first batch, until a write
// leaves nothing queued behind it. Called with mu held by the sender that
// found no flush in progress; releases it.
func (w *FrameWriter) flush(tail []byte) error {
	w.flushing = true
	failed := false
	for w.err == nil && len(w.pend) > 0 {
		batch := w.pend
		w.pend = w.spare[:0]
		w.queued = 0
		w.room.Broadcast()
		w.mu.Unlock()
		if w.timeout > 0 {
			w.conn.SetWriteDeadline(time.Now().Add(w.timeout))
		}
		var err error
		if tail == nil {
			_, err = w.conn.Write(batch)
		} else { // one vectored write, where the connection has them
			_, err = (&net.Buffers{batch, tail}).WriteTo(w.conn)
			tail = nil
		}
		w.flushes.Inc()
		w.mu.Lock()
		w.spare = batch[:0]
		if w.plant == plantDropQueued {
			w.pend = w.pend[:0]
		}
		if err != nil && w.err == nil {
			w.err, failed = err, true
		}
	}
	w.flushing = false
	err := w.err
	w.room.Broadcast()
	w.mu.Unlock()
	if failed {
		w.onFail(err)
	}
	return err
}

// Kill implements StreamConn: err is the connection's fault, if the first.
func (w *FrameWriter) Kill(err error) {
	w.mu.Lock()
	first := w.err == nil
	if first {
		w.err = err
	}
	w.room.Broadcast()
	w.mu.Unlock()
	if first {
		w.onFail(err)
	}
}

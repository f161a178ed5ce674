// The two halves of a connection (DESIGN.md §15), the same under the side
// that dialed (muxConn) and the side that accepted (fs.serveFrames). A
// connection moves batches, not frames.
package proto

import (
	"bufio"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"eevfs/internal/telemetry"
)

const (
	// writeBacklog bounds the bytes copied into the backlog behind a write
	// in progress; a sender that would exceed it waits for the flusher to
	// take a batch.
	writeBacklog = 256 << 10
	// inPlacePayload is the payload length from which a frame is not
	// copied into the backlog: the payload is queued by reference and
	// leaves from the caller's buffer in the vectored write of the batch
	// that holds it. A node's 16 KiB read reply and a stream's data chunks
	// go in place; requests, small replies and control frames are copied.
	inPlacePayload = 4 << 10
	// readBuffer is small on purpose: a payload longer than it is read
	// straight into its destination.
	readBuffer = 4 << 10
)

// NewReadHalf is the read half of a connection: a header and a small body
// — or several pipelined frames — cost its demux loop one read.
func NewReadHalf(r io.Reader) *bufio.Reader { return bufio.NewReaderSize(r, readBuffer) }

// FrameWriter is the write half of one connection, and what a Stream
// holds of it (StreamConn). Senders queue whole frames under one lock —
// small ones copied, longer payloads by reference — and whoever finds no
// flush in progress becomes the flusher: it yields once, so that senders
// already runnable queue behind it, then writes batches until the backlog
// stays empty, each in one vectored write. No writer goroutine, no hop to
// one. A sender of a payload in place returns once the batch holding it is
// written; a sender of a small frame never waits for another's write and
// never writes another's payload in place: as flusher it leaves a batch
// holding one to that payload's sender. Every write is under the write
// deadline. The first fault — a failed write, or what Kill is handed —
// fails every later send and runs the owner's hook, once.
type FrameWriter struct {
	conn    net.Conn
	timeout time.Duration // per write; 0 is none
	onFail  func(error)
	depth   *telemetry.Histogram // frames pending as each is queued
	flushes *telemetry.Counter

	mu       sync.Mutex
	room     sync.Cond // a batch was taken, or the flush let go
	sent     sync.Cond // a batch was written, or the flush let go
	pend     []byte    // the next batch: small frames whole, the rest as headers
	refs     []inPlace // the payloads pend leaves out, in order
	spare    []byte    // the batch before, emptied: pend's next backing
	flushing bool
	taken    uint64 // batches a flusher has taken; pend leaves as taken+1
	written  uint64 // batches whose write has returned
	err      error
	queued   int // frames in pend

	// Touched by the flusher only, outside mu: the batch being written, as
	// the segments of one vectored write, and what is left of it while the
	// write consumes it.
	segs, out net.Buffers

	// plant is the conformance suite's planted bug, tests only.
	plant string
}

// inPlace is a payload left out of pend: it goes on the wire right after
// the header that ends at pend[at].
type inPlace struct {
	at int
	b  []byte
}

// The conformance suite's planted bugs: plantDropQueued loses what senders
// queued during a write; plantEarlyRelease scribbles on a payload in place
// before the batch holding it is written, as its caller would if it had
// the payload back already; plantSmallWritesBulk lets a small frame's
// sender write the payloads in place of others; plantCopiedUncounted
// counts only headers against the backlog bound.
const (
	plantDropQueued      = "drop-queued"
	plantEarlyRelease    = "early-release"
	plantSmallWritesBulk = "small-writes-bulk"
	plantCopiedUncounted = "copied-uncounted"
)

// NewFrameWriter makes the write half of conn. onFail tears the connection
// down; reg (nil: nowhere) gets proto.queue.depth and proto.write.flushes.
func NewFrameWriter(conn net.Conn, timeout time.Duration, reg *telemetry.Registry, onFail func(error)) *FrameWriter {
	w := &FrameWriter{
		conn: conn, timeout: timeout, onFail: onFail,
		depth:   reg.Histogram("proto.queue.depth", nil),
		flushes: reg.Counter("proto.write.flushes"),
	}
	w.room.L, w.sent.L = &w.mu, &w.mu
	return w
}

// owned reports whether the backlog will be written without a new
// flusher: one is writing, or payloads in place wait in it, and their
// senders take the flush when it is let go.
func (w *FrameWriter) owned() bool { return w.flushing || len(w.refs) > 0 }

// Frame is one frame of a batch that SendFrames puts on the wire.
type Frame struct {
	T       Type
	Payload []byte
}

// SendFrame implements StreamConn: on return the frame is on the wire or
// queued behind the write in progress; the payload is the caller's again.
func (w *FrameWriter) SendFrame(t Type, id uint32, payload []byte) error {
	return w.SendFrames(id, []Frame{{T: t, Payload: payload}})
}

// SendFrames is SendFrame for several frames of stream id, queued in order
// under one lock, so that they leave in one write: a stream's open
// response with its first chunk, its last chunk with its end. The
// payloads in place among them are the caller's again once that write
// has returned.
func (w *FrameWriter) SendFrames(id uint32, frames []Frame) error {
	ref, copied := false, 0
	for _, f := range frames {
		n := v2HeaderLen + len(f.Payload)
		if n > MaxFrame {
			return ErrFrameTooLarge
		}
		byRef := len(f.Payload) >= inPlacePayload
		ref = ref || byRef
		if byRef || w.plant == plantCopiedUncounted {
			copied += 4 + v2HeaderLen
		} else {
			copied += 4 + n
		}
	}
	w.mu.Lock()
	for w.err == nil && w.owned() && len(w.pend)+copied > writeBacklog {
		w.room.Wait()
	}
	if w.err != nil {
		w.mu.Unlock()
		return w.err
	}
	idle := !w.owned()
	for _, f := range frames {
		w.pend = appendFrameHeader(w.pend, f.T, id, len(f.Payload))
		if len(f.Payload) >= inPlacePayload {
			w.refs = append(w.refs, inPlace{at: len(w.pend), b: f.Payload})
		} else {
			w.pend = append(w.pend, f.Payload...)
		}
		w.depth.Observe(float64(w.queued))
		w.queued++
	}
	batch := w.taken + 1
	failed := false
	if idle {
		// Nobody is writing: this sender does, after one yield, so that
		// the senders already runnable — the callers a demux loop just
		// woke, the handlers a read just dispatched — queue behind it and
		// leave in the same write.
		w.flushing = true
		w.mu.Unlock()
		runtime.Gosched()
		w.mu.Lock()
		failed = w.flush(ref)
	}
	if ref && w.plant == plantEarlyRelease && w.taken < batch {
		for _, f := range frames {
			if len(f.Payload) >= inPlacePayload {
				clear(f.Payload)
			}
		}
	}
	// A payload in place is its caller's again once the write carrying it
	// has returned, or once a fault means no write ever will; its sender
	// takes the flush when a small frame's sender lets it go.
	for ref && w.written < batch && (w.err == nil || w.taken >= batch) {
		if w.flushing {
			w.sent.Wait()
			continue
		}
		w.flushing = true
		failed = w.flush(true) || failed
	}
	err := w.err
	w.mu.Unlock()
	if failed {
		w.onFail(err)
	}
	return err
}

// flush writes batches until a write leaves nothing queued behind it —
// or, for a flusher that sent a small frame (ref false), until the next
// batch holds a payload in place, which it leaves to that payload's
// sender. Called with mu held and flushing set, by the sender that set
// it; returns with mu held and flushing clear, reporting whether it met
// the connection's first fault.
func (w *FrameWriter) flush(ref bool) (failed bool) {
	for w.err == nil && len(w.pend) > 0 && (ref || len(w.refs) == 0 || w.plant == plantSmallWritesBulk) {
		batch := w.pend
		segs, at := w.segs[:0], 0
		for _, r := range w.refs {
			segs = append(segs, batch[at:r.at], r.b)
			at = r.at
		}
		if at < len(batch) {
			segs = append(segs, batch[at:])
		}
		clear(w.refs)
		w.refs = w.refs[:0]
		w.pend = w.spare[:0]
		w.queued = 0
		w.taken++
		w.room.Broadcast()
		w.mu.Unlock()
		if w.timeout > 0 {
			w.conn.SetWriteDeadline(time.Now().Add(w.timeout))
		}
		var err error
		if len(segs) == 1 {
			_, err = w.conn.Write(batch)
		} else { // one vectored write, where the connection has them
			w.out = segs
			_, err = w.out.WriteTo(w.conn)
		}
		clear(segs) // the payloads are their senders' again
		w.segs = segs[:0]
		w.flushes.Inc()
		w.mu.Lock()
		w.written = w.taken
		w.sent.Broadcast()
		w.spare = batch[:0]
		if w.plant == plantDropQueued && len(w.pend) > 0 {
			w.pend, w.refs = w.pend[:0], w.refs[:0]
			w.taken++
			w.written = w.taken
		}
		if err != nil && w.err == nil {
			w.err, failed = err, true
		}
	}
	w.flushing = false
	w.room.Broadcast()
	w.sent.Broadcast()
	return failed
}

// Kill implements StreamConn: err is the connection's fault, if the first.
func (w *FrameWriter) Kill(err error) {
	w.mu.Lock()
	first := w.err == nil
	if first {
		w.err = err
	}
	w.room.Broadcast()
	w.sent.Broadcast()
	w.mu.Unlock()
	if first {
		w.onFail(err)
	}
}

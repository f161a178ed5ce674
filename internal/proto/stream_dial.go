// The dialing side of the streaming data plane: opening a stream on an
// Endpoint, and the io.Reader / io.Writer adaptors over its Stream.
package proto

import (
	"errors"
	"io"

	"eevfs/internal/telemetry"
)

// errStreamClosed reports use of a stream after its owner closed it.
var errStreamClosed = errors.New("proto: stream closed")

// streamErr types a mid-stream fault the way Call does, so
// errors.As(err, **TransportError) works identically for streams: a peer
// abort stays the *RemoteError it is, anything else failed below the
// application layer.
func (e *Endpoint) streamErr(err error) error {
	var re *RemoteError
	if errors.As(err, &re) {
		return err
	}
	e.met.transportEs.Inc()
	return &TransportError{Addr: e.addr, Attempts: 1, Err: err}
}

// ReadStream is the client side of one open read stream: an
// io.ReadCloser over the chunks its Stream receives.
type ReadStream struct {
	ep   *Endpoint
	st   *Stream
	resp StreamOpenResp

	cur    []byte // unread rest of the current chunk
	err    error
	closed bool
}

// FromBuffer reports whether the node serves this stream from its buffer
// disk.
func (s *ReadStream) FromBuffer() bool { return s.resp.FromBuffer }

// Size returns the total byte count the stream will deliver.
func (s *ReadStream) Size() int64 { return s.resp.Size }

// Read implements io.Reader. Mid-stream faults are never retried — a
// partially consumed stream cannot be transparently replayed — and
// surface typed: *RemoteError for peer aborts, *TransportError for
// connection faults and for a stream that does not carry exactly Size
// bytes.
func (s *ReadStream) Read(p []byte) (int, error) {
	for len(s.cur) == 0 {
		if s.err != nil {
			return 0, s.err
		}
		b, err := s.st.RecvChunk()
		switch {
		case err != nil:
			s.err = s.ep.streamErr(err)
		case b == nil:
			s.err = io.EOF
		default:
			s.cur = b
			s.ep.met.streamChunks.Inc()
			s.ep.met.streamBytes.Add(int64(len(b)))
		}
	}
	n := copy(p, s.cur)
	s.cur = s.cur[n:]
	return n, nil
}

// Close releases the stream. Closing before the terminal frame aborts
// the transfer upstream: the node stops sending, and any chunks already
// in flight are discarded without disturbing other streams or round
// trips on the connection.
func (s *ReadStream) Close() error {
	if !s.closed {
		s.closed = true
		s.cur = nil
		if s.err == nil {
			s.err = errStreamClosed
		}
		s.st.hangUp("stream closed by reader")
	}
	return nil
}

// WriteStream is the client side of one open write stream: an
// io.WriteCloser cutting what it is given into chunks of the node-granted
// size for its Stream to send. Close sends the end-of-stream marker and
// waits for the node's final acknowledgement.
type WriteStream struct {
	ep    *Endpoint
	st    *Stream
	chunk int

	buffered bool
	err      error
	closed   bool
}

// Write implements io.Writer.
func (s *WriteStream) Write(p []byte) (int, error) {
	if s.closed {
		return 0, errStreamClosed
	}
	total := 0
	for len(p) > 0 && s.err == nil {
		n := min(len(p), s.chunk)
		if err := s.st.SendChunk(p[:n]); err != nil {
			s.err = s.ep.streamErr(err)
			break
		}
		p = p[n:]
		total += n
		s.ep.met.streamChunks.Inc()
		s.ep.met.streamBytes.Add(int64(n))
	}
	return total, s.err
}

// Buffered reports whether the node's write-buffer area absorbed the
// streamed content. Valid after a successful Close.
func (s *WriteStream) Buffered() bool { return s.buffered }

// Close sends the end-of-stream marker and waits for the node's final
// acknowledgement (TStreamEnd carrying the buffered flag). Closing a
// stream that already failed just releases it.
func (s *WriteStream) Close() error {
	if s.closed {
		return s.err
	}
	s.closed = true
	if s.err == nil {
		err := s.st.End(false)
		var end StreamEnd
		if err == nil {
			end, err = s.st.awaitEnd()
		}
		if err != nil {
			s.err = s.ep.streamErr(err)
		}
		s.buffered = end.Buffered
	}
	s.st.hangUp("stream closed by writer")
	return s.err
}

// openStream dials (or reuses) a connection generation, registers a
// stream id, sends the open frame, and waits for the peer's verdict.
// Opens are side-effect-free until data flows, so transport faults are
// retried exactly like Call; a *RemoteError rejection is final.
func (e *Endpoint) openStream(t Type, req StreamOpenReq, sc telemetry.SpanContext) (st *Stream, resp StreamOpenResp, err error) {
	req.Window = uint32(ClampStreamWindow(req.Window))
	// The node answers with a chunk size of its own only when asked for
	// none, and never above the protocol's bound.
	limit := NegotiateChunk(req.ChunkSize, MaxStreamChunk)
	// The open response queues behind other streams' data frames on the
	// shared connection, so it gets the stall bound like every later
	// frame, not the bare RPC deadline — a premature timeout here poisons
	// the generation and takes healthy streams down with it.
	stall := StreamStallTimeout(e.cfg.RTTimeout)
	ft, payload := AttachContext(t, req.Encode(), sc)
	err = e.attempt(func(m *muxConn) (err error) {
		if st, err = m.registerStream(int(req.Window), limit, stall); err == nil {
			err = m.w.SendFrame(ft, st.id, payload)
		}
		if err == nil {
			resp, err = st.awaitOpen()
		}
		return err
	})
	if err != nil {
		return nil, StreamOpenResp{}, err
	}
	e.met.streamOpens.Inc()
	return st, resp, nil
}

// OpenReadStream opens a chunked read stream for req.FileID. The
// returned ReadStream delivers exactly resp.Size bytes (see Size) or a
// typed error; the caller must Close it.
func (e *Endpoint) OpenReadStream(req StreamOpenReq, sc telemetry.SpanContext) (*ReadStream, error) {
	req.Size = 0
	st, resp, err := e.openStream(TStreamReadReq, req, sc)
	if err != nil {
		return nil, err
	}
	return &ReadStream{ep: e, st: st, resp: resp}, nil
}

// OpenWriteStream opens a chunked write stream that will carry exactly
// req.Size bytes to req.FileID. The node's grant (chunk size and credit
// window) governs the returned WriteStream; the caller must Close it to
// commit the write.
func (e *Endpoint) OpenWriteStream(req StreamOpenReq, sc telemetry.SpanContext) (*WriteStream, error) {
	st, resp, err := e.openStream(TStreamWriteReq, req, sc)
	if err != nil {
		return nil, err
	}
	return &WriteStream{ep: e, st: st, chunk: NegotiateChunk(resp.ChunkSize, 0)}, nil
}

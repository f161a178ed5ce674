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

// errSourceOverrun reports a WriteStream.ReadFrom source that holds more
// than the stream declared.
var errSourceOverrun = errors.New("proto: write stream source holds more than the declared size")

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
	if !s.fill() {
		return 0, s.err
	}
	n := copy(p, s.cur)
	s.cur = s.cur[n:]
	return n, nil
}

// WriteTo implements io.WriterTo: each received chunk goes to w whole,
// straight from the buffer it arrived in. It returns nil once the stream
// has delivered exactly Size bytes, w's error if w fails, and the
// stream's typed error (as Read does) otherwise.
func (s *ReadStream) WriteTo(w io.Writer) (n int64, err error) {
	for s.fill() {
		var m int
		m, err = w.Write(s.cur)
		s.cur = s.cur[m:]
		n += int64(m)
		if err == nil && len(s.cur) > 0 {
			err = io.ErrShortWrite
		}
		if err != nil {
			return n, err
		}
	}
	if s.err == io.EOF {
		return n, nil
	}
	return n, s.err
}

// fill makes the current chunk non-empty, receiving the next one if it
// has to. false means the stream is done: s.err says why, io.EOF for the
// clean end.
func (s *ReadStream) fill() bool {
	for len(s.cur) == 0 {
		if s.err != nil {
			return false
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
	return true
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
	left  int64 // declared bytes not yet sent

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
		if !s.send(p[:n]) {
			break
		}
		p = p[n:]
		total += n
	}
	return total, s.err
}

// ReadFrom implements io.ReaderFrom: it fills one pooled chunk at a time
// from r, never past the bytes still declared, and sends it in place, so
// every data frame but the last is a whole chunk however little r returns
// per Read. A source that holds more than the declared size, or fails, is
// an error that also fails the stream: Close then aborts it instead of
// committing a part.
func (s *WriteStream) ReadFrom(r io.Reader) (n int64, err error) {
	if s.closed {
		return 0, errStreamClosed
	}
	buf := GetChunk(int(max(min(int64(s.chunk), s.left), 1)))
	defer PutChunk(buf)
	for s.err == nil {
		// With nothing left to send, one byte more is an overrun.
		b := buf[:max(min(int64(len(buf)), s.left), 1)]
		m, rerr := io.ReadFull(r, b)
		if m > 0 && s.left <= 0 {
			s.err = errSourceOverrun
		} else if m > 0 && s.send(b[:m]) {
			n += int64(m)
		}
		switch {
		case rerr == io.EOF || rerr == io.ErrUnexpectedEOF:
			return n, s.err
		case rerr != nil && s.err == nil:
			s.err = rerr
		}
	}
	return n, s.err
}

// send sends b as one data frame; false means the stream failed, s.err
// saying why.
func (s *WriteStream) send(b []byte) bool {
	if err := s.st.SendChunk(b); err != nil {
		s.err = s.ep.streamErr(err)
		return false
	}
	s.left -= int64(len(b))
	s.ep.met.streamChunks.Inc()
	s.ep.met.streamBytes.Add(int64(len(b)))
	return true
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
	// The peer answers with a chunk size of its own only when asked for
	// none, and never above the protocol's bound.
	limit := MaxStreamChunk
	if req.ChunkSize != 0 {
		limit = NegotiateChunk(req.ChunkSize)
	}
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
	return &WriteStream{ep: e, st: st, chunk: NegotiateChunk(resp.ChunkSize), left: req.Size}, nil
}

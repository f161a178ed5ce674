// The client side of the streaming data plane (DESIGN.md §19): OpenRead
// returns an io.ReadCloser pulling a file through pooled chunk buffers,
// OpenWrite/WriteFrom push one through the node's credit window — both
// with O(chunk) client memory regardless of file size, per-stream trace
// spans, and the same typed-error surface as the RPC paths.
package fs

import (
	"fmt"
	"io"

	"eevfs/internal/proto"
	"eevfs/internal/telemetry"
)

// StreamOptions tunes one streamed transfer. The zero value asks for
// proto.DefaultStreamChunk and the default flow-control window.
type StreamOptions struct {
	// ChunkBytes requests a specific data-frame size (clamped to
	// [proto.MinStreamChunk, proto.MaxStreamChunk]; 0 = proto.DefaultStreamChunk).
	ChunkBytes int
	// Window requests a flow-control credit window (clamped to
	// proto.MaxStreamWindow; 0 = proto.DefaultStreamWindow).
	Window int
}

// FileReader is one open streamed read: an io.ReadCloser over the file's
// content. Errors surface typed (fs sentinels / *proto.TransportError);
// Close before EOF aborts the transfer upstream.
type FileReader struct {
	rs  *proto.ReadStream
	sp  *telemetry.Span // root client.stream.read span
	att *telemetry.Span // node round-trip child span
	fin bool
}

// Size returns the total byte count the stream delivers.
func (r *FileReader) Size() int64 { return r.rs.Size() }

// FromBuffer reports whether the node serves the stream from its buffer
// disk.
func (r *FileReader) FromBuffer() bool { return r.rs.FromBuffer() }

// Read implements io.Reader.
func (r *FileReader) Read(p []byte) (int, error) {
	n, err := r.rs.Read(p)
	return n, r.settle(err)
}

// WriteTo implements io.WriterTo: each chunk the node sends goes to w
// whole. It returns nil at the stream's clean end.
func (r *FileReader) WriteTo(w io.Writer) (int64, error) {
	n, err := r.rs.WriteTo(w)
	if err == nil {
		r.settle(io.EOF) // the clean end
		return n, nil
	}
	return n, r.settle(err)
}

// settle maps a stream error to the typed surface and, at the stream's
// first end — io.EOF or a failure — ends its spans.
func (r *FileReader) settle(err error) error {
	if err != nil && err != io.EOF {
		err = mapRemote(err)
	}
	if err != nil && !r.fin {
		r.fin = true
		if err == io.EOF {
			r.att.Finish()
			r.sp.Finish()
		} else {
			r.att.End(err)
			r.sp.End(err)
		}
	}
	return err
}

// Close releases the stream; closing before EOF aborts the transfer.
func (r *FileReader) Close() error {
	err := r.rs.Close()
	if !r.fin {
		r.fin = true
		r.att.Finish()
		r.sp.Finish()
	}
	return err
}

// openOnNode opens a stream on the node holding name: lookup on the
// server (with the usual failover walk), then open against the owning
// storage node. A read of a name the client has located before opens at
// that location first, and a failure there that a stale location would
// explain forgets it and goes the lookup way. A transport fault during
// the open is retried once against a fresh lookup, so a node redirect or
// replica change heals transparently; faults after data starts flowing
// surface to the caller (a partially moved stream cannot be
// transparently replayed). att is the node round trip's span, still open
// on success.
func openOnNode[S any](c *Client, name string, lookup proto.Type, sp *telemetry.Span,
	open func(ep *proto.Endpoint, fileID int64, sc telemetry.SpanContext) (S, error)) (s S, att *telemetry.Span, err error) {
	openAt := func(node string, id int64) (S, *telemetry.Span, error) {
		att := sp.Child("client.rt.node.stream")
		att.Annotate("peer", node)
		s, err := open(c.nodeEp(node), id, att.Context())
		if err != nil {
			err = mapRemote(err)
			att.End(err)
			return s, nil, err
		}
		return s, att, nil
	}
	if loc, ok := c.cached(name); ok && lookup == proto.TLookupReq {
		if s, att, err = openAt(loc.node, loc.id); !stale(err) {
			c.noteRead(loc.id)
			return s, att, err
		}
		c.forget(name)
	}
	for attempt := 0; attempt < 2; attempt++ {
		loc, lerr := c.locate(name, lookup, sp)
		if lerr != nil {
			return s, nil, lerr
		}
		if s, att, err = openAt(loc.NodeAddr, loc.FileID); !isTransportErr(err) {
			break
		}
	}
	return s, att, err
}

// OpenRead opens a streamed read of name straight from the owning
// storage node.
func (c *Client) OpenRead(name string, opts StreamOptions) (*FileReader, error) {
	sp := c.startOp("client.stream.read", name)
	rs, att, err := openOnNode(c, name, proto.TLookupReq, sp,
		func(ep *proto.Endpoint, id int64, sc telemetry.SpanContext) (*proto.ReadStream, error) {
			return ep.OpenReadStream(proto.StreamOpenReq{
				FileID:    id,
				ChunkSize: uint32(opts.ChunkBytes),
				Window:    uint32(opts.Window),
			}, sc)
		})
	if err != nil {
		sp.End(err)
		return nil, err
	}
	return &FileReader{rs: rs, sp: sp, att: att}, nil
}

// FileWriter is one open streamed write: an io.WriteCloser that must
// receive exactly the declared size and be Closed to commit. Buffered
// reports (after Close) whether the node's write-buffer absorbed it.
type FileWriter struct {
	ws  *proto.WriteStream
	sp  *telemetry.Span
	att *telemetry.Span
	fin bool
}

// Write implements io.Writer.
func (w *FileWriter) Write(p []byte) (int, error) {
	n, err := w.ws.Write(p)
	if err != nil {
		err = mapRemote(err)
	}
	return n, err
}

// ReadFrom implements io.ReaderFrom: r's bytes go out in whole chunks,
// however little each Read returns. A failing r fails the write, which
// Close then aborts.
func (w *FileWriter) ReadFrom(r io.Reader) (int64, error) {
	n, err := w.ws.ReadFrom(r)
	if err != nil {
		err = mapRemote(err)
	}
	return n, err
}

// Close commits the write (the node acknowledges after landing all
// bytes) and ends the stream's spans.
func (w *FileWriter) Close() error {
	err := w.ws.Close()
	if err != nil {
		err = mapRemote(err)
	}
	if !w.fin {
		w.fin = true
		w.att.End(err)
		w.sp.End(err)
	}
	return err
}

// Buffered reports whether the node's write-buffer area absorbed the
// content. Valid after a successful Close.
func (w *FileWriter) Buffered() bool { return w.ws.Buffered() }

// OpenWrite opens a streamed replacement of name's content with exactly
// size bytes. The lookup declares write intent, so the server
// invalidates any buffer-disk replica before the stream opens — the
// same stale-mirror guarantee as the RPC Write path.
func (c *Client) OpenWrite(name string, size int64, opts StreamOptions) (*FileWriter, error) {
	if size <= 0 {
		return nil, fmt.Errorf("fs: refusing to stream empty content to %q", name)
	}
	sp := c.startOp("client.stream.write", name)
	ws, att, err := openOnNode(c, name, proto.TLookupWriteReq, sp,
		func(ep *proto.Endpoint, id int64, sc telemetry.SpanContext) (*proto.WriteStream, error) {
			return ep.OpenWriteStream(proto.StreamOpenReq{
				FileID:    id,
				Size:      size,
				ChunkSize: uint32(opts.ChunkBytes),
				Window:    uint32(opts.Window),
			}, sc)
		})
	if err != nil {
		sp.End(err)
		return nil, err
	}
	return &FileWriter{ws: ws, sp: sp, att: att}, nil
}

// WriteFrom streams size bytes from r into name: OpenWrite + copy +
// Close. buffered reports whether the node's write-buffer absorbed it.
func (c *Client) WriteFrom(name string, size int64, r io.Reader) (buffered bool, err error) {
	w, err := c.OpenWrite(name, size, StreamOptions{})
	if err != nil {
		return false, err
	}
	if _, err := io.Copy(w, io.LimitReader(r, size)); err != nil {
		w.Close()
		return false, err
	}
	if err := w.Close(); err != nil {
		return false, err
	}
	return w.Buffered(), nil
}

// ReadTo streams name's content into w: OpenRead + copy + Close.
// fromBuffer reports whether the node's buffer disk served it.
func (c *Client) ReadTo(name string, w io.Writer) (n int64, fromBuffer bool, err error) {
	r, err := c.OpenRead(name, StreamOptions{})
	if err != nil {
		return 0, false, err
	}
	defer r.Close()
	n, err = io.Copy(w, r)
	return n, r.FromBuffer(), err
}

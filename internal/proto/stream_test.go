package proto

import (
	"bytes"
	"errors"
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"eevfs/internal/telemetry"
)

// streamTestServer is a minimal raw-frame v2 peer for stream tests: it
// accepts one connection, consumes the preface, and hands each inbound
// frame to script. Writes from script go straight to the socket.
func streamTestServer(t *testing.T, script func(conn net.Conn, ty Type, id uint32, payload []byte) bool) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var preface [4]byte
		if _, err := io.ReadFull(conn, preface[:]); err != nil {
			return
		}
		for {
			ty, id, payload, err := ReadFrameID(conn)
			if err != nil {
				return
			}
			if !script(conn, ty, id, payload) {
				return
			}
		}
	}()
	return ln.Addr().String()
}

func testTransport() TransportConfig {
	return TransportConfig{
		DialTimeout: time.Second,
		RTTimeout:   2 * time.Second,
		Retries:     -1,
	}
}

// chunkWriter records every Write it is handed.
type chunkWriter struct {
	sizes []int
	buf   bytes.Buffer
}

func (w *chunkWriter) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return w.buf.Write(p)
}

// TestReadStreamDelivery runs complete streamed reads: open, chunked
// data within the credit window, clean end — and checks the reassembled
// bytes, the stream metadata, and that the stream id is retired. The
// first read goes through Read, the second through WriteTo, which must
// hand the writer each chunk whole.
func TestReadStreamDelivery(t *testing.T) {
	content := bytes.Repeat([]byte("stream-me!"), 2000) // 20 KB
	const chunk = 1024
	addr := streamTestServer(t, func(conn net.Conn, ty Type, id uint32, payload []byte) bool {
		if ty == TStreamCredit {
			return true // replenishment racing past the inline loop below
		}
		if ty != TStreamReadReq {
			t.Errorf("server got frame type %d", ty)
			return false
		}
		req, err := DecodeStreamOpenReq(payload)
		if err != nil {
			t.Error(err)
			return false
		}
		resp := StreamOpenResp{FromBuffer: true, Size: int64(len(content)),
			ChunkSize: chunk, Window: req.Window}
		if err := WriteFrameID(conn, TStreamOpenResp, id, resp.Encode()); err != nil {
			return false
		}
		// Window accounting is ignored here: the client's queue holds the
		// full window and it never stops reading, so a fast push is fine
		// for content this small relative to window*chunk... it is not —
		// 20 chunks > default window 8. Respect the window: send
		// window chunks, then consume credits as they arrive.
		credits := int(req.Window)
		for off := 0; off < len(content); {
			for credits == 0 {
				ct, _, cp, err := ReadFrameID(conn)
				if err != nil {
					return false
				}
				if ct != TStreamCredit {
					t.Errorf("server got %d while awaiting credit", ct)
					return false
				}
				c, err := DecodeStreamCredit(cp)
				if err != nil {
					t.Error(err)
					return false
				}
				credits += int(c.N)
			}
			end := off + chunk
			if end > len(content) {
				end = len(content)
			}
			if err := WriteFrameID(conn, TDataFrame, id, content[off:end]); err != nil {
				return false
			}
			off = end
			credits--
		}
		if err := WriteFrameID(conn, TStreamEnd, id, StreamEnd{}.Encode()); err != nil {
			return false
		}
		return true
	})

	ep := NewEndpoint(addr, nil, testTransport())
	defer ep.Close()
	for _, viaWriteTo := range []bool{false, true} {
		rs, err := ep.OpenReadStream(StreamOpenReq{FileID: 7}, telemetry.SpanContext{})
		if err != nil {
			t.Fatal(err)
		}
		if !rs.FromBuffer() || rs.Size() != int64(len(content)) {
			t.Fatalf("FromBuffer=%v Size=%d", rs.FromBuffer(), rs.Size())
		}
		var got []byte
		if viaWriteTo {
			var w chunkWriter
			if n, err := rs.WriteTo(&w); err != nil || n != int64(len(content)) {
				t.Fatalf("WriteTo: n=%d err=%v", n, err)
			}
			if want := (len(content) + chunk - 1) / chunk; len(w.sizes) != want || w.sizes[0] != chunk {
				t.Fatalf("WriteTo made %d writes (first %d bytes), want %d of the %d-byte chunks", len(w.sizes), w.sizes[0], want, chunk)
			}
			got = w.buf.Bytes()
		} else if got, err = io.ReadAll(rs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, content) {
			t.Fatalf("content mismatch: got %d bytes", len(got))
		}
		if err := rs.Close(); err != nil {
			t.Fatal(err)
		}
		ep.mu.Lock()
		m := ep.cur
		ep.mu.Unlock()
		m.mu.Lock()
		open := len(m.streams)
		m.mu.Unlock()
		if open != 0 {
			t.Fatalf("%d stream ids still registered after a settled read", open)
		}
	}
}

// TestReadStreamAbortTyped pins that a peer abort mid-stream surfaces as
// a typed *RemoteError and leaves the connection generation healthy.
func TestReadStreamAbortTyped(t *testing.T) {
	addr := streamTestServer(t, func(conn net.Conn, ty Type, id uint32, payload []byte) bool {
		switch ty {
		case TStreamReadReq:
			resp := StreamOpenResp{Size: 4096, ChunkSize: 1024, Window: 8}
			if err := WriteFrameID(conn, TStreamOpenResp, id, resp.Encode()); err != nil {
				return false
			}
			if err := WriteFrameID(conn, TDataFrame, id, make([]byte, 1024)); err != nil {
				return false
			}
			em := ErrorMsg{Code: CodeNotFound, Msg: "disk ate the file"}
			if err := WriteFrameID(conn, TStreamAbort, id, em.Encode()); err != nil {
				return false
			}
			return true
		case TListReq:
			return WriteFrameID(conn, TListResp, id, ListResp{}.Encode()) == nil
		}
		t.Errorf("server got frame type %d", ty)
		return false
	})

	ep := NewEndpoint(addr, nil, testTransport())
	defer ep.Close()
	rs, err := ep.OpenReadStream(StreamOpenReq{FileID: 1}, telemetry.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(rs)
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != CodeNotFound {
		t.Fatalf("err = %v, want *RemoteError{CodeNotFound}", err)
	}
	rs.Close()
	// The abort was stream-scoped: a plain round trip on the same
	// connection generation must still work.
	if _, _, err := ep.Call(TListReq, nil); err != nil {
		t.Fatalf("round trip after stream abort: %v", err)
	}
}

// TestStreamOpenRejectedTyped pins the open-time rejection path: a
// TError answer to the open frame is a final *RemoteError, not a retried
// transport fault.
func TestStreamOpenRejectedTyped(t *testing.T) {
	var opens int
	var mu sync.Mutex
	addr := streamTestServer(t, func(conn net.Conn, ty Type, id uint32, payload []byte) bool {
		mu.Lock()
		opens++
		mu.Unlock()
		em := ErrorMsg{Code: CodeGeneric, Msg: "no streams here"}
		return WriteFrameID(conn, TError, id, em.Encode()) == nil
	})
	cfg := testTransport()
	cfg.Retries = 3
	ep := NewEndpoint(addr, nil, cfg)
	defer ep.Close()
	_, err := ep.OpenReadStream(StreamOpenReq{FileID: 1}, telemetry.SpanContext{})
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != CodeGeneric {
		t.Fatalf("err = %v, want *RemoteError{CodeGeneric}", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if opens != 1 {
		t.Fatalf("remote rejection was retried: %d opens", opens)
	}
}

// TestPoisonFailsAllStreams pins the extended all-or-nothing rule: a
// connection-generation fault fails every open stream (and pending round
// trip) with the same typed error.
func TestPoisonFailsAllStreams(t *testing.T) {
	release := make(chan struct{})
	addr := streamTestServer(t, func(conn net.Conn, ty Type, id uint32, payload []byte) bool {
		resp := StreamOpenResp{Size: 1 << 20, ChunkSize: 1024, Window: 8}
		if err := WriteFrameID(conn, TStreamOpenResp, id, resp.Encode()); err != nil {
			return false
		}
		if id == 2 { // second open: hang, then die
			<-release
			return false // server closes the socket
		}
		return true
	})

	ep := NewEndpoint(addr, nil, testTransport())
	defer ep.Close()
	rs1, err := ep.OpenReadStream(StreamOpenReq{FileID: 1}, telemetry.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	rs2, err := ep.OpenReadStream(StreamOpenReq{FileID: 2}, telemetry.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	close(release) // server closes; both streams must fail typed

	for i, rs := range []*ReadStream{rs1, rs2} {
		_, err := io.ReadAll(rs)
		var te *TransportError
		if !errors.As(err, &te) {
			t.Fatalf("stream %d err = %v, want *TransportError", i+1, err)
		}
		rs.Close()
	}
}

// TestWriteStreamRoundTrip runs one complete streamed write against a
// scripted peer that verifies chunking stays inside the granted window.
func TestWriteStreamRoundTrip(t *testing.T) {
	content := bytes.Repeat([]byte("write-path"), 5000) // 50 KB
	const window, chunk = 4, 2048
	for _, viaReadFrom := range []bool{false, true} {
		var mu sync.Mutex
		var received []byte
		var frames []int
		addr := streamTestServer(t, func(conn net.Conn, ty Type, id uint32, payload []byte) bool {
			switch ty {
			case TStreamWriteReq:
				req, err := DecodeStreamOpenReq(payload)
				if err != nil || req.Size != int64(len(content)) {
					t.Errorf("open: err=%v size=%d", err, req.Size)
					return false
				}
				resp := StreamOpenResp{Size: req.Size, ChunkSize: chunk, Window: window}
				return WriteFrameID(conn, TStreamOpenResp, id, resp.Encode()) == nil
			case TDataFrame:
				mu.Lock()
				received = append(received, payload...)
				frames = append(frames, len(payload))
				mu.Unlock()
				if len(payload) > chunk {
					t.Errorf("chunk of %d bytes exceeds granted size", len(payload))
					return false
				}
				// Replenish one credit per chunk consumed.
				return WriteFrameID(conn, TStreamCredit, id, StreamCredit{N: 1}.Encode()) == nil
			case TStreamEnd:
				mu.Lock()
				ok := bytes.Equal(received, content)
				mu.Unlock()
				if !ok {
					t.Error("server received wrong bytes")
					return false
				}
				return WriteFrameID(conn, TStreamEnd, id, StreamEnd{Buffered: true}.Encode()) == nil
			}
			t.Errorf("server got frame type %d", ty)
			return false
		})

		ep := NewEndpoint(addr, nil, testTransport())
		defer ep.Close()
		ws, err := ep.OpenWriteStream(StreamOpenReq{FileID: 3, Size: int64(len(content)), Window: window},
			telemetry.SpanContext{})
		if err != nil {
			t.Fatal(err)
		}
		// A bytes.Reader copies itself into Write; a reader that returns
		// one byte a Read is gathered by ReadFrom into whole chunks.
		var src io.Reader = bytes.NewReader(content)
		if viaReadFrom {
			src = iotest.OneByteReader(src)
		}
		if _, err := io.Copy(ws, src); err != nil {
			t.Fatal(err)
		}
		if err := ws.Close(); err != nil {
			t.Fatal(err)
		}
		if !ws.Buffered() {
			t.Fatal("Buffered() = false, want true from the server's end frame")
		}
		mu.Lock()
		if want := (len(content) + chunk - 1) / chunk; viaReadFrom && (len(frames) != want || frames[0] != chunk) {
			t.Errorf("ReadFrom sent %d data frames (first %d bytes), want %d of the %d-byte chunk", len(frames), frames[0], want, chunk)
		}
		mu.Unlock()
	}
}

// TestStreamChunkPool pins the pooled-buffer contract: a chunk comes from
// the smallest power-of-two class from MinStreamChunk that holds it and
// goes back to that class; oversized and foreign buffers fall to the GC
// without poisoning a pool or the in-use count.
func TestStreamChunkPool(t *testing.T) {
	baseline := ChunksInUse()
	var held [][]byte
	for _, c := range []struct{ n, class int }{
		{0, MinStreamChunk}, {64, MinStreamChunk}, {MinStreamChunk, MinStreamChunk},
		{MinStreamChunk + 1, 2 * MinStreamChunk}, {1024, 1024},
		{16<<10 + NodeReadRespHead, 32 << 10}, {DefaultStreamChunk, DefaultStreamChunk},
		{DefaultStreamChunk + 1, 2 * DefaultStreamChunk}, {MaxStreamChunk, MaxStreamChunk},
	} {
		b := GetChunk(c.n)
		if len(b) != c.n || cap(b) != c.class {
			t.Errorf("GetChunk(%d): len %d cap %d, want cap %d", c.n, len(b), cap(b), c.class)
		}
		held = append(held, b)
	}
	if in := ChunksInUse() - baseline; in != int64(len(held)) {
		t.Fatalf("%d chunks handed out, %d counted in use", len(held), in)
	}
	for _, b := range held {
		PutChunk(b)
	}
	big := GetChunk(MaxStreamChunk + 1)
	if len(big) != MaxStreamChunk+1 {
		t.Fatalf("len=%d", len(big))
	}
	PutChunk(big)
	PutChunk(make([]byte, 3000)) // not GetChunk's
	if in := ChunksInUse(); in != baseline {
		t.Fatalf("%d chunks in use after every one went back, want %d", in, baseline)
	}
	for _, n := range []int{64, 3000, 20 << 10} {
		again := GetChunk(n)
		if cap(again) != MinStreamChunk<<chunkClass(n) {
			t.Errorf("GetChunk(%d) after foreign puts: cap %d", n, cap(again))
		}
		PutChunk(again)
	}
}

// TestNegotiateChunkClamps pins the chunk/window negotiation bounds.
func TestNegotiateChunkClamps(t *testing.T) {
	cases := []struct {
		req  uint32
		want int
	}{
		{0, DefaultStreamChunk},
		{100, MinStreamChunk},
		{4096, 4096},
		{1 << 30, MaxStreamChunk},
	}
	for _, c := range cases {
		if got := NegotiateChunk(c.req); got != c.want {
			t.Errorf("NegotiateChunk(%d) = %d, want %d", c.req, got, c.want)
		}
	}
	if got := ClampStreamWindow(0); got != DefaultStreamWindow {
		t.Errorf("ClampStreamWindow(0) = %d", got)
	}
	if got := ClampStreamWindow(1 << 20); got != MaxStreamWindow {
		t.Errorf("ClampStreamWindow(big) = %d", got)
	}
}

// TestStreamMessagesRoundTrip covers the stream codecs, including the
// empty-payload StreamEnd form.
func TestStreamMessagesRoundTrip(t *testing.T) {
	o := StreamOpenReq{FileID: 9, Size: 1 << 30, ChunkSize: 4096, Window: 16}
	if got, err := DecodeStreamOpenReq(o.Encode()); err != nil || got != o {
		t.Fatalf("open req: %+v err=%v", got, err)
	}
	r := StreamOpenResp{FromBuffer: true, Size: 123, ChunkSize: 512, Window: 2}
	if got, err := DecodeStreamOpenResp(r.Encode()); err != nil || got != r {
		t.Fatalf("open resp: %+v err=%v", got, err)
	}
	e := StreamEnd{Buffered: true}
	if got, err := DecodeStreamEnd(e.Encode()); err != nil || got != e {
		t.Fatalf("end: %+v err=%v", got, err)
	}
	if got, err := DecodeStreamEnd(nil); err != nil || got.Buffered {
		t.Fatalf("empty end: %+v err=%v", got, err)
	}
	c := StreamCredit{N: 42}
	if got, err := DecodeStreamCredit(c.Encode()); err != nil || got != c {
		t.Fatalf("credit: %+v err=%v", got, err)
	}
	if _, err := DecodeStreamOpenReq([]byte{1, 2}); err == nil {
		t.Fatal("truncated open req decoded")
	}
}

// typeRecorder is a StreamConn that batches nothing: it records the type
// of every frame it is handed.
type typeRecorder struct{ types []Type }

func (r *typeRecorder) SendFrame(t Type, _ uint32, _ []byte) error {
	r.types = append(r.types, t)
	return nil
}

func (r *typeRecorder) Kill(error) {}

// TestReadStreamLeavesInOneWrite: the accepting end of a read stream
// holds its open response for the first chunk and sends its last chunk
// with the end, so a stream of n chunks costs its connection n writes —
// one for a file of one chunk, where it cost three — whether the chunks
// are copied into the batch or sent in place; the frames and their order
// are what they were, also over a connection that does not batch. The
// open response of a write stream, whose peer waits for the grant, leaves
// at once.
func TestReadStreamLeavesInOneWrite(t *testing.T) {
	for _, tc := range []struct{ chunks, size int }{{1, 1000}, {1, 64 << 10}, {3, 1000}, {3, 64 << 10}} {
		a, b := net.Pipe()
		reg := telemetry.NewRegistry()
		w := NewFrameWriter(a, time.Second, reg, func(error) { a.Close() })
		got := make(chan []Type)
		go func() {
			var types []Type
			for {
				ty, _, _, err := ReadFrameID(b)
				if err != nil {
					got <- types
					return
				}
				types = append(types, ty)
			}
		}()
		var plain typeRecorder
		for _, c := range []StreamConn{w, &plain} {
			st := NewStream(7, c, time.Second, tc.chunks)
			st.AcceptDeferred(StreamOpenResp{Size: int64(tc.chunks * tc.size), ChunkSize: uint32(tc.size)})
			chunk := make([]byte, tc.size)
			for i := 1; i < tc.chunks; i++ {
				if err := st.SendChunk(chunk); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.EndWith(chunk); err != nil {
				t.Fatal(err)
			}
			if st.timer != nil {
				t.Errorf("%d chunks of %d bytes: a sender that never waited made a stall timer", tc.chunks, tc.size)
			}
		}
		if n := reg.Counter("proto.write.flushes").Value(); n != int64(tc.chunks) {
			t.Errorf("%d chunks of %d bytes left in %d writes, want %d", tc.chunks, tc.size, n, tc.chunks)
		}
		a.Close()
		want := []Type{TStreamOpenResp}
		for i := 0; i < tc.chunks; i++ {
			want = append(want, TDataFrame)
		}
		want = append(want, TStreamEnd)
		if types := <-got; !slices.Equal(types, want) || !slices.Equal(plain.types, want) {
			t.Errorf("%d chunks of %d bytes: frames %v batched and %v plain, want %v", tc.chunks, tc.size, types, plain.types, want)
		}
	}

	a, b := net.Pipe()
	defer b.Close()
	go io.Copy(io.Discard, b)
	reg := telemetry.NewRegistry()
	st := NewStream(9, NewFrameWriter(a, time.Second, reg, func(error) { a.Close() }), time.Second, 4)
	if err := st.Accept(StreamOpenResp{ChunkSize: 1000}); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("proto.write.flushes").Value(); n != 1 {
		t.Fatalf("Accept left its open response unwritten (%d writes)", n)
	}
	a.Close()
}

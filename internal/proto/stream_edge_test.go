package proto

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"eevfs/internal/telemetry"
)

// TestRPCDeadlineStretchedOnStreamCarryingConn pins the congestion rule:
// an RPC issued on a connection generation that carries an open stream
// gets the stream stall bound, not the bare round-trip deadline — its
// response legitimately queues behind the stream's data frames, and a
// premature timeout would poison the generation and kill the healthy
// stream with it.
func TestRPCDeadlineStretchedOnStreamCarryingConn(t *testing.T) {
	const rt = 300 * time.Millisecond
	addr := streamTestServer(t, func(conn net.Conn, ty Type, id uint32, payload []byte) bool {
		switch ty {
		case TStreamReadReq:
			resp := StreamOpenResp{Size: 1 << 20, ChunkSize: 1024, Window: 8}
			return WriteFrameID(conn, TStreamOpenResp, id, resp.Encode()) == nil
		case TListReq:
			// Past the bare deadline, well inside the stall bound.
			time.Sleep(2 * rt)
			return WriteFrameID(conn, TListResp, id, ListResp{}.Encode()) == nil
		case TStreamAbort:
			return true // the deferred rs.Close hanging up
		}
		t.Errorf("server got frame type %d", ty)
		return false
	})

	cfg := testTransport()
	cfg.RTTimeout = rt
	ep := NewEndpoint(addr, nil, cfg)
	defer ep.Close()
	rs, err := ep.OpenReadStream(StreamOpenReq{FileID: 1}, telemetry.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if _, _, err := ep.Call(TListReq, nil); err != nil {
		t.Fatalf("slow RPC on a stream-carrying connection: %v", err)
	}
}

// TestStreamOpenStallTimesOutTyped pins the open-stall path: a peer that
// never answers the open frame surfaces a timeout-classified
// *TransportError once the stall bound expires.
func TestStreamOpenStallTimesOutTyped(t *testing.T) {
	addr := streamTestServer(t, func(conn net.Conn, ty Type, id uint32, payload []byte) bool {
		return true // swallow everything, answer nothing
	})
	cfg := testTransport()
	cfg.RTTimeout = 50 * time.Millisecond
	ep := NewEndpoint(addr, nil, cfg)
	defer ep.Close()
	_, err := ep.OpenReadStream(StreamOpenReq{FileID: 1}, telemetry.SpanContext{})
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *TransportError", err)
	}
	if !te.Timeout() {
		t.Fatalf("err = %v, want timeout classification", err)
	}
}

// TestReadStreamEarlyCloseDiscardsLateFrames pins the discard protocol:
// Close before EOF aborts upstream, chunks already in flight are dropped
// on the floor, the peer's terminal frame retires the id, and the
// connection stays healthy for round trips throughout.
func TestReadStreamEarlyCloseDiscardsLateFrames(t *testing.T) {
	chunk := make([]byte, 1024)
	addr := streamTestServer(t, func(conn net.Conn, ty Type, id uint32, payload []byte) bool {
		switch ty {
		case TStreamReadReq:
			resp := StreamOpenResp{Size: 1 << 20, ChunkSize: 1024, Window: 8}
			if err := WriteFrameID(conn, TStreamOpenResp, id, resp.Encode()); err != nil {
				return false
			}
			return WriteFrameID(conn, TDataFrame, id, chunk) == nil
		case TStreamAbort:
			// The reader hung up: one more chunk was already in flight,
			// then the terminal frame confirms nothing further follows.
			if err := WriteFrameID(conn, TDataFrame, id, chunk); err != nil {
				return false
			}
			return WriteFrameID(conn, TStreamEnd, id, StreamEnd{}.Encode()) == nil
		case TStreamCredit:
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
	buf := make([]byte, 256)
	if _, err := rs.Read(buf); err != nil {
		t.Fatal(err)
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	// The generation survives the early close, and the discarded id is
	// retired once the peer's end frame lands.
	if _, _, err := ep.Call(TListReq, nil); err != nil {
		t.Fatalf("round trip after early stream close: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		ep.mu.Lock()
		m := ep.cur
		ep.mu.Unlock()
		m.mu.Lock()
		open := len(m.streams)
		m.mu.Unlock()
		if open == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d stream ids still registered after discard settled", open)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWriteStreamAbortMidDataTyped pins the write-side abort path: the
// peer rejecting mid-upload surfaces as a typed *RemoteError from Write,
// Close reports the same failure, and the connection stays healthy.
func TestWriteStreamAbortMidDataTyped(t *testing.T) {
	var mu sync.Mutex
	aborted := false
	addr := streamTestServer(t, func(conn net.Conn, ty Type, id uint32, payload []byte) bool {
		switch ty {
		case TStreamWriteReq:
			resp := StreamOpenResp{ChunkSize: 1024, Window: 2}
			return WriteFrameID(conn, TStreamOpenResp, id, resp.Encode()) == nil
		case TDataFrame, TStreamEnd:
			mu.Lock()
			first := !aborted
			aborted = true
			mu.Unlock()
			if !first {
				return true // the id is settled client-side; stay silent
			}
			em := ErrorMsg{Code: CodeUnavailable, Msg: "buffer area full"}
			return WriteFrameID(conn, TStreamAbort, id, em.Encode()) == nil
		case TListReq:
			return WriteFrameID(conn, TListResp, id, ListResp{}.Encode()) == nil
		}
		t.Errorf("server got frame type %d", ty)
		return false
	})

	ep := NewEndpoint(addr, nil, testTransport())
	defer ep.Close()
	ws, err := ep.OpenWriteStream(StreamOpenReq{FileID: 1, Size: 1 << 20}, telemetry.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 64<<10)
	var werr error
	for i := 0; i < 16 && werr == nil; i++ {
		_, werr = ws.Write(payload)
	}
	var re *RemoteError
	if !errors.As(werr, &re) || re.Code != CodeUnavailable {
		t.Fatalf("Write err = %v, want *RemoteError{CodeUnavailable}", werr)
	}
	if cerr := ws.Close(); !errors.Is(cerr, werr) && cerr == nil {
		t.Fatalf("Close after abort = %v, want the abort error", cerr)
	}
	if _, _, err := ep.Call(TListReq, nil); err != nil {
		t.Fatalf("round trip after write-stream abort: %v", err)
	}
}

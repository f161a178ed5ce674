package fs

import (
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"eevfs/internal/proto"
	"eevfs/internal/telemetry"
)

// servePipe runs serveFrames on the server end of a net.Pipe and returns
// both ends, the client's prefaced, plus a channel closed when serveFrames
// has returned — which it does only after every handler goroutine it
// started. Its table answers TListReq and opens both kinds of stream
// with shandle, told which kind it serves.
func servePipe(t *testing.T, shandle func(proto.Type, proto.StreamOpenReq, *telemetry.Span, *proto.Stream) error) (client, server net.Conn, served <-chan struct{}) {
	t.Helper()
	client, server = net.Pipe()
	t.Cleanup(func() { client.Close() })
	stream := func(ty proto.Type) streamHandlerFunc {
		return func(req proto.StreamOpenReq, sp *telemetry.Span, st *proto.Stream) error {
			return shandle(ty, req, sp, st)
		}
	}
	ops := newOpTable("node", nil, nil, map[proto.Type]op{
		proto.TListReq: {name: "list", rpc: func([]byte, *telemetry.Span) (reply, error) {
			return reply{t: proto.TListResp, body: proto.ListResp{}.Encode()}, nil
		}},
		proto.TStreamReadReq:  {name: "stream.read", stream: stream(proto.TStreamReadReq)},
		proto.TStreamWriteReq: {name: "stream.write", stream: stream(proto.TStreamWriteReq)},
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		serveFrames(server, time.Second, ops)
	}()
	if err := proto.WritePreface(client); err != nil {
		t.Fatal(err)
	}
	return client, server, done
}

// TestServeFramesCutsOffFloodAtWindow pins that the accepting side
// enforces the window it granted, not a fixed 80 frames: a peer granted
// the default window that floods a write stream whose handler consumes
// nothing gets window + slack frames in before the connection is torn
// down, and every chunk buffer they took goes back to the pool.
func TestServeFramesCutsOffFloodAtWindow(t *testing.T) {
	baseline := proto.ChunksInUse()
	release := make(chan struct{})
	client, _, served := servePipe(t, func(_ proto.Type, req proto.StreamOpenReq, _ *telemetry.Span, st *proto.Stream) error {
		if err := st.Accept(proto.StreamOpenResp{Size: req.Size, ChunkSize: 1 << 10}); err != nil {
			t.Error(err)
		}
		<-release // holds the stream open, consuming nothing
		return nil
	})
	open := proto.StreamOpenReq{FileID: 1, Size: 1 << 30, ChunkSize: 1 << 10}
	if err := proto.WriteFrameID(client, proto.TStreamWriteReq, 7, open.Encode()); err != nil {
		t.Fatal(err)
	}
	ty, _, payload, err := proto.ReadFrameID(client)
	resp, derr := proto.DecodeStreamOpenResp(payload)
	if err != nil || derr != nil || ty != proto.TStreamOpenResp || resp.Window != proto.DefaultStreamWindow {
		t.Fatalf("open answered with type %d %+v, err %v %v", ty, resp, err, derr)
	}
	// Every data frame the stream accepts sits in its queue in a chunk from
	// the pool until the handler lets go, so the chunks out of the pool
	// when the flood is cut off are the frames that got in. (How many
	// writes returned says less: the connection's read buffer can absorb
	// the frame that trips the violation.)
	chunk := make([]byte, 1<<10)
	for i := 0; i < 200 && proto.WriteFrameID(client, proto.TDataFrame, 7, chunk) == nil; i++ {
	}
	const slack = 8 // proto's control-frame allowance on top of the window
	if in, want := proto.ChunksInUse()-baseline, int64(proto.DefaultStreamWindow+slack); in != want {
		t.Errorf("%d frames buffered when the connection was cut, want window + slack = %d", in, want)
	}
	close(release)
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("serveFrames still running after the violation")
	}
	if n := proto.ChunksInUse(); n != baseline {
		t.Errorf("%d chunk buffers out of the pool after the teardown, %d before", n, baseline)
	}
}

// FuzzServeStreamFrames drives the accepting side's demux — the loop that
// faces untrusted peers — with arbitrary frame scripts while real stream
// handlers run on the proto.Stream it builds: opens, duplicate opens,
// data for live, dead and unknown ids, oversized chunks, floods, ends,
// aborts, credits, RPCs in between, truncated frames. Invariants: never a
// panic, never a chunk delivered to another stream (every stream's bytes
// carry its own marker), serveFrames returns once the peer is gone —
// having joined every goroutine it started — with every chunk buffer back
// in the pool and the connection closed.
func FuzzServeStreamFrames(f *testing.F) {
	f.Add([]byte{0, 8, 2, 200, 2, 200, 5, 0})                    // open, data, data, end
	f.Add([]byte{0, 4, 1, 4, 2, 100, 3, 100, 2, 50, 6, 0, 5, 0}) // two streams interleaved, one aborted
	f.Add([]byte{2, 100, 4, 100, 5, 0, 6, 0, 7, 9})              // stream frames for ids never opened
	f.Add([]byte{0, 1, 11, 0})                                   // oversized chunk
	f.Add([]byte{0, 1, 0, 1})                                    // duplicate open
	f.Add([]byte{8, 3, 7, 2, 7, 2, 9, 0})                        // read stream fed credits, an RPC
	f.Add([]byte{0, 255, 2, 255, 2, 255, 2, 255, 2, 255, 2, 255, 2, 255, 2, 255, 2, 255, 2, 255, 2, 255, 2, 255,
		2, 255, 2, 255, 2, 255, 2, 255, 2, 255, 2, 255, 2, 255, 2, 255}) // flood
	f.Add([]byte{0, 8, 10, 77}) // truncated frame

	const chunk = 512
	f.Fuzz(func(t *testing.T, script []byte) {
		baseline := proto.ChunksInUse()
		var crossed atomic.Bool
		client, server, served := servePipe(t, func(ty proto.Type, req proto.StreamOpenReq, _ *telemetry.Span, st *proto.Stream) error {
			err := st.Accept(proto.StreamOpenResp{Size: req.Size, ChunkSize: chunk})
			if ty == proto.TStreamReadReq {
				for i := int64(0); err == nil && i < req.Size; i += chunk {
					err = st.SendChunk(make([]byte, min(chunk, req.Size-i)))
				}
			} else {
				for err == nil {
					var b []byte
					if b, err = st.RecvChunk(); b == nil {
						break
					}
					for _, c := range b {
						if c != byte(req.FileID) {
							crossed.Store(true)
						}
					}
				}
			}
			if err != nil {
				return err // serveFrames sends the abort
			}
			if err := st.End(false); err != nil {
				t.Log(err) // the peer may be gone
			}
			return nil
		})
		go io.Copy(io.Discard, client) // responses, credits; ends with the pipe

		// The stream with wire id i+1 carries file id (and so marker) i+1.
		open := func(t proto.Type, id uint32, arg byte) error {
			req := proto.StreamOpenReq{FileID: int64(id), Size: int64(arg) * 100, ChunkSize: chunk, Window: uint32(arg % 16)}
			return proto.WriteFrameID(client, t, id, req.Encode())
		}
		data := func(id uint32, n int) error {
			b := make([]byte, n)
			for i := range b {
				b[i] = byte(id)
			}
			return proto.WriteFrameID(client, proto.TDataFrame, id, b)
		}
		var werr error
		for i := 0; i+1 < len(script) && werr == nil; i += 2 {
			arg := script[i+1]
			switch script[i] % 12 {
			case 0:
				werr = open(proto.TStreamWriteReq, 1, arg)
			case 1:
				werr = open(proto.TStreamWriteReq, 2, arg)
			case 2:
				werr = data(1, int(arg)*2+1)
			case 3:
				werr = data(2, int(arg)*2+1)
			case 4:
				werr = data(999, int(arg)+1)
			case 5:
				werr = proto.WriteFrameID(client, proto.TStreamEnd, 1, proto.StreamEnd{}.Encode())
			case 6:
				werr = proto.WriteFrameID(client, proto.TStreamAbort, 2, proto.ErrorMsg{Msg: "fuzzed"}.Encode())
			case 7:
				werr = proto.WriteFrameID(client, proto.TStreamCredit, uint32(arg%4), proto.StreamCredit{N: uint32(arg)}.Encode())
			case 8:
				werr = open(proto.TStreamReadReq, 3, arg)
			case 9:
				werr = proto.WriteFrameID(client, proto.TListReq, 50, nil)
			case 10:
				// A header promising more than follows; nothing sane can.
				client.Write([]byte{0, 0, 1, 0, byte(proto.TDataFrame), 0, 0, 0, 1, arg})
				werr = io.EOF
			case 11:
				werr = data(1, chunk+1)
			}
		}
		client.Close()

		select {
		case <-served:
		case <-time.After(10 * time.Second):
			t.Fatal("serveFrames did not return after its peer hung up")
		}
		// Reading a pipe end whose peer closed is io.EOF until the end is
		// closed itself.
		if _, err := server.Read(make([]byte, 1)); err != io.ErrClosedPipe {
			t.Fatalf("serveFrames returned leaving its connection open (read: %v)", err)
		}
		if crossed.Load() {
			t.Fatal("a stream received a chunk carrying another stream's marker")
		}
		if n := proto.ChunksInUse(); n != baseline {
			t.Fatalf("%d chunk buffers out of the pool after the connection, %d before", n, baseline)
		}
	})
}

package proto

import (
	"errors"
	"io"
	"net"
	"testing"

	"eevfs/internal/telemetry"
)

// TestReadStreamSizeMismatchTyped pins the "exactly Size bytes or a typed
// error" contract of a read stream: a peer that ends the stream before
// the size it declared, or keeps sending past it, must surface as a typed
// error from Read — never io.EOF over short data, never extra bytes.
func TestReadStreamSizeMismatchTyped(t *testing.T) {
	const declared, chunk = 4096, 1024
	for _, tc := range []struct {
		name   string
		chunks int
	}{
		{"ends early", 2},
		{"runs past", 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := streamTestServer(t, func(conn net.Conn, ty Type, id uint32, payload []byte) bool {
				if ty != TStreamReadReq {
					return true // credits, and the reader's hang-up
				}
				resp := StreamOpenResp{Size: declared, ChunkSize: chunk, Window: 8}
				if WriteFrameID(conn, TStreamOpenResp, id, resp.Encode()) != nil {
					return false
				}
				for i := 0; i < tc.chunks; i++ {
					if WriteFrameID(conn, TDataFrame, id, make([]byte, chunk)) != nil {
						return false
					}
				}
				return WriteFrameID(conn, TStreamEnd, id, StreamEnd{}.Encode()) == nil
			})
			ep := NewEndpoint(addr, nil, testTransport())
			defer ep.Close()
			rs, err := ep.OpenReadStream(StreamOpenReq{FileID: 1}, telemetry.SpanContext{})
			if err != nil {
				t.Fatal(err)
			}
			defer rs.Close()
			got, err := io.ReadAll(rs)
			var te *TransportError
			if !errors.As(err, &te) {
				t.Fatalf("read %d of a declared %d bytes with err = %v, want a *TransportError", len(got), declared, err)
			}
			if len(got) > declared {
				t.Fatalf("Read delivered %d bytes of a stream declared at %d", len(got), declared)
			}
		})
	}
}

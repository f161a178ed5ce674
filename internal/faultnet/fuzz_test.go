package faultnet

import (
	"bytes"
	"testing"

	"eevfs/internal/proto"
)

// FuzzCorruptedFrames drives the exact byte corruption a faultnet Conn
// applies into the protocol frame reader. The framing has no checksum, so
// corruption may decode into garbage — the invariants are that the reader
// never panics, never allocates beyond MaxFrame, and that corrupting a
// frame never makes the reader claim more payload than the input holds.
func FuzzCorruptedFrames(f *testing.F) {
	frame := func(t proto.Type, payload []byte) []byte {
		var buf bytes.Buffer
		if err := proto.WriteFrameID(&buf, t, 7, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(frame(proto.TCreateReq, proto.CreateReq{Name: "x", Size: 1}.Encode()), int64(4), int64(1))
	f.Add(frame(proto.TError, proto.ErrorMsg{Msg: "boom", Code: proto.CodeUnavailable}.Encode()), int64(1), int64(7))
	f.Add(frame(proto.TNodeReadResp, proto.NodeReadResp{Data: make([]byte, 300)}.Encode()), int64(16), int64(42))
	f.Add([]byte{}, int64(1), int64(1))

	f.Fuzz(func(t *testing.T, input []byte, every, seed int64) {
		if every < 0 || every > int64(len(input))+1 {
			return
		}
		corrupted := append([]byte(nil), input...)
		CorruptBytes(corrupted, every, 0, seed)

		ty, id, payload, err := proto.ReadFrameID(bytes.NewReader(corrupted))
		if err != nil {
			return
		}
		if len(payload) > len(corrupted) {
			t.Fatalf("reader produced %d payload bytes from %d input bytes",
				len(payload), len(corrupted))
		}
		// Whatever decoded must survive a clean round trip.
		var buf bytes.Buffer
		if err := proto.WriteFrameID(&buf, ty, id, payload); err != nil {
			t.Fatalf("re-encoding accepted frame failed: %v", err)
		}
		ty2, id2, payload2, err := proto.ReadFrameID(&buf)
		if err != nil || ty2 != ty || id2 != id || !bytes.Equal(payload2, payload) {
			t.Fatal("round trip of corrupted-but-accepted frame mismatched")
		}
		// And the error decoder must tolerate corrupted payloads without
		// panicking (result is unspecified).
		if ty == proto.TError {
			_, _ = proto.DecodeErrorMsg(payload)
		}
	})
}

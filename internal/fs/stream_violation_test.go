package fs

import (
	"bytes"
	"net"
	"testing"
	"time"

	"eevfs/internal/proto"
)

// TestNodeCutsOffOversizedStreamChunk pins that the node enforces the
// chunk size it negotiated: a write stream granted 1 KiB chunks that sends
// a 2 KiB data frame loses its connection, and the file keeps its content
// — even though the bytes add up to exactly the declared size.
func TestNodeCutsOffOversizedStreamChunk(t *testing.T) {
	cl, _, nodes := testCluster(t, 1, nil)
	old := patternedContent(3, 4<<10)
	if err := cl.Create("v.dat", old); err != nil {
		t.Fatal(err)
	}
	id := int64(nodes[0].Files()[0].ID)

	conn, err := net.Dial("tcp", nodes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := proto.WritePreface(conn); err != nil {
		t.Fatal(err)
	}
	open := proto.StreamOpenReq{FileID: id, Size: 4 << 10, ChunkSize: 1 << 10}
	if err := proto.WriteFrameID(conn, proto.TStreamWriteReq, 1, open.Encode()); err != nil {
		t.Fatal(err)
	}
	ty, _, payload, err := proto.ReadFrameID(conn)
	if err != nil || ty != proto.TStreamOpenResp {
		t.Fatalf("open answered with type %d, err %v", ty, err)
	}
	if resp, err := proto.DecodeStreamOpenResp(payload); err != nil || resp.ChunkSize != 1<<10 {
		t.Fatalf("negotiated %+v, err %v; want 1 KiB chunks", resp, err)
	}
	// The node may hang up at the first frame; later writes then fail,
	// which is the point.
	for i := 0; i < 2; i++ {
		_ = proto.WriteFrameID(conn, proto.TDataFrame, 1, make([]byte, 2<<10))
	}
	_ = proto.WriteFrameID(conn, proto.TStreamEnd, 1, proto.StreamEnd{}.Encode())
	for {
		ty, _, _, err := proto.ReadFrameID(conn)
		if err != nil {
			break // torn down
		}
		if ty == proto.TStreamEnd {
			t.Fatal("the node committed a stream whose chunks were twice the negotiated size")
		}
	}
	got, _, err := cl.Read("v.dat")
	if err != nil || !bytes.Equal(got, old) {
		t.Fatalf("content after the refused stream: %d bytes, err %v; want the old %d", len(got), err, len(old))
	}
}

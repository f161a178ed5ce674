// The node's streaming wire plane (DESIGN.md §19): large files move as
// chunked TDataFrames through one pooled buffer per stream instead of a
// whole-payload response, so a 64 MB read costs O(chunk) node memory.
// Below the framing it is the same storage engine as the RPC handlers
// (extent.go): same source selection, same disk charge, same writer.
package fs

import (
	"strconv"

	"eevfs/internal/proto"
	"eevfs/internal/telemetry"
)

// handleStreamRead streams one file to the peer: open response first,
// then data chunks under the peer-granted credit window, then a clean
// end. The open response leaves with the first chunk and the last chunk
// with the end, so a file of one chunk leaves in one write. One pooled
// chunk buffer is resident per stream regardless of file size.
func (n *Node) handleStreamRead(req proto.StreamOpenReq, sp *telemetry.Span, st *proto.Stream) error {
	r, err := n.source(req.FileID, 0, wholeFile, spanAttrib(sp, req.FileID, planeStream))
	if err != nil {
		return err
	}
	defer r.close(n.files)

	chunk := proto.NegotiateChunk(req.ChunkSize)
	st.AcceptDeferred(proto.StreamOpenResp{FromBuffer: r.fromBuffer, Size: r.length, ChunkSize: uint32(chunk)})
	buf := proto.GetChunk(chunk)
	defer proto.PutChunk(buf)
	sent := int64(0)
	err = r.emit(n.files, buf, func(b []byte) error {
		n.streamChunksC.Inc()
		n.streamBytesC.Add(int64(len(b)))
		if sent += int64(len(b)); sent == r.length {
			return st.EndWith(b)
		}
		return st.SendChunk(b)
	})
	if err != nil {
		return err
	}
	if sp != nil {
		sp.Annotate("stream.bytes", strconv.FormatInt(r.length, 10))
	}
	if sent == 0 { // nothing to send: the end leaves alone
		return st.End(false)
	}
	return nil
}

// handleStreamWrite receives one file from the peer under a node-granted
// credit window and commits it with the same placement and metadata
// semantics as the RPC write path (write-buffer absorption, stale-mirror
// invalidation, size updates). RecvChunk ends the loop cleanly only when
// exactly the declared size arrived, which is all the writer can hold.
func (n *Node) handleStreamWrite(req proto.StreamOpenReq, sp *telemetry.Span, st *proto.Stream) error {
	w, err := n.sink(req.FileID, req.Size, spanAttrib(sp, req.FileID, planeStream))
	if err != nil {
		return err
	}
	chunk := proto.NegotiateChunk(req.ChunkSize)
	err = st.Accept(proto.StreamOpenResp{FromBuffer: w.buffered, Size: req.Size, ChunkSize: uint32(chunk)})
	for err == nil {
		var b []byte
		if b, err = st.RecvChunk(); b == nil {
			break // the clean end, or err
		}
		n.streamChunksC.Inc()
		n.streamBytesC.Add(int64(len(b)))
		err = w.write(b)
	}
	if err != nil {
		w.abandon()
		return err
	}
	if err := n.commitWrite(w); err != nil {
		return err
	}
	if sp != nil {
		sp.Annotate("stream.bytes", strconv.FormatInt(req.Size, 10))
	}
	return st.End(w.buffered)
}

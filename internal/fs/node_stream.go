// The node's streaming wire plane (DESIGN.md §19): large files move as
// chunked TDataFrames through one pooled buffer per stream instead of a
// whole-payload response, so a 64 MB read costs O(chunk) node memory.
// Below the framing it is the same storage engine as the RPC handlers
// (extent.go): same source selection, same disk charge, same writer.
package fs

import (
	"fmt"
	"time"

	"eevfs/internal/proto"
	"eevfs/internal/telemetry"
)

// dispatchStream serves one opened stream end to end. Every exit path
// sends a terminal frame: sendEnd on success (inside the handlers),
// sendAbort carrying the typed error otherwise — the client side relies
// on that terminal frame to retire early-closed stream ids.
func (n *Node) dispatchStream(t proto.Type, payload []byte, sc telemetry.SpanContext, st *srvStream) {
	start := time.Now()
	sp := n.cfg.Tracer.StartRemote(sc, "node", "node."+opName(t))
	req, err := proto.DecodeStreamOpenReq(payload)
	if err == nil {
		switch t {
		case proto.TStreamReadReq:
			err = n.handleStreamRead(req, sp, st)
		case proto.TStreamWriteReq:
			err = n.handleStreamWrite(req, sp, st)
		default:
			err = fmt.Errorf("fs: node got unexpected stream open type %d", t)
		}
	}
	if err != nil {
		st.sendAbort(err)
	}
	n.met.observe(t, time.Since(start), err)
	sp.End(err)
}

// acceptStream answers a stream open with the negotiated chunk size and
// credit window.
func (n *Node) acceptStream(st *srvStream, req proto.StreamOpenReq, size int64, fromBuffer bool) (chunk, window int, err error) {
	chunk = proto.NegotiateChunk(req.ChunkSize, n.cfg.StreamChunkBytes)
	window = proto.ClampStreamWindow(req.Window)
	resp := proto.StreamOpenResp{FromBuffer: fromBuffer, Size: size, ChunkSize: uint32(chunk), Window: uint32(window)}
	return chunk, window, st.sendFrame(proto.TStreamOpenResp, resp.Encode())
}

// handleStreamRead streams one file to the peer: open response first,
// then data chunks under the peer-granted credit window, then a clean
// end. One pooled chunk buffer is resident per stream regardless of file
// size.
func (n *Node) handleStreamRead(req proto.StreamOpenReq, sp *telemetry.Span, st *srvStream) error {
	r, err := n.source(req.FileID, 0, wholeFile, spanAttrib(sp, req.FileID, planeStream))
	if err != nil {
		return err
	}
	defer r.first.Close()

	chunk, window, err := n.acceptStream(st, req, r.length, r.fromBuffer)
	if err != nil {
		return err
	}
	st.grantCredits(window)
	buf := proto.GetChunk(chunk)
	defer proto.PutChunk(buf)
	stall := proto.StreamStallTimeout(n.cfg.WriteTimeout)
	err = r.emit(buf, func(b []byte) error {
		n.streamChunksC.Inc()
		n.streamBytesC.Add(int64(len(b)))
		return st.sendData(b, stall)
	})
	if err != nil {
		return err
	}
	sp.Annotate("stream.bytes", fmt.Sprint(r.length))
	return st.sendEnd(false)
}

// handleStreamWrite receives one file from the peer under a node-granted
// credit window and commits it with the same placement and metadata
// semantics as the RPC write path (write-buffer absorption, stale-mirror
// invalidation, size updates).
func (n *Node) handleStreamWrite(req proto.StreamOpenReq, sp *telemetry.Span, st *srvStream) error {
	w, err := n.sink(req.FileID, req.Size, spanAttrib(sp, req.FileID, planeStream))
	if err != nil {
		return err
	}
	if err := n.receive(st, w, req); err != nil {
		w.abandon()
		return err
	}
	if err := w.commit(); err != nil {
		return err
	}
	n.commitWrite(w.entry, w.size, w.buffered)
	sp.Annotate("stream.bytes", fmt.Sprint(req.Size))
	return st.sendEnd(w.buffered)
}

// receive accepts the stream and lands its data frames in w until the
// peer's clean end, replenishing the sender's credit window as chunks are
// consumed. It returns nil only when exactly the declared size arrived.
func (n *Node) receive(st *srvStream, w *extentWriter, req proto.StreamOpenReq) error {
	_, window, err := n.acceptStream(st, req, req.Size, w.buffered)
	if err != nil {
		return err
	}
	received := int64(0)
	sinceCredit := 0
	for {
		msg, err := st.recvMsg(proto.StreamStallTimeout(n.cfg.WriteTimeout))
		if err != nil {
			return err
		}
		switch msg.t {
		case proto.TDataFrame:
			m := int64(len(msg.payload))
			if received+m > req.Size {
				proto.PutChunk(msg.payload)
				return fmt.Errorf("fs: stream write of file %d overran declared size %d", req.FileID, req.Size)
			}
			err := w.write(msg.payload)
			proto.PutChunk(msg.payload)
			if err != nil {
				return err
			}
			received += m
			n.streamChunksC.Inc()
			n.streamBytesC.Add(m)
			sinceCredit++
			if sinceCredit >= window/2 || sinceCredit >= window {
				if err := st.sendFrame(proto.TStreamCredit, proto.StreamCredit{N: uint32(sinceCredit)}.Encode()); err != nil {
					return err
				}
				sinceCredit = 0
			}
		case proto.TStreamEnd:
			if received != req.Size {
				return fmt.Errorf("fs: stream write of file %d ended at %d of %d bytes",
					req.FileID, received, req.Size)
			}
			return nil
		case proto.TStreamAbort:
			return decodeStreamAbort(msg.payload)
		default:
			st.conn.Close()
			return fmt.Errorf("fs: unexpected frame type %d on write stream", msg.t)
		}
	}
}

// The node's streaming data plane (DESIGN.md §19): large files move as
// chunked TDataFrames through one pooled buffer per stream instead of a
// whole-payload response, so a 64 MB read costs O(chunk) node memory.
// Disk latency and energy are charged through the same modeled-disk
// path as the RPC handlers — a streamed read of a sleeping spindle still
// pays (and attributes) the spin-up.
package fs

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"eevfs/internal/metadata"
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

// streamSeg is one on-disk extent of a streamed file: the disk it lives
// on (for latency/energy charging), its path, and its length.
type streamSeg struct {
	nd   *nodeDisk
	path string
	size int64
}

// chargeDisk runs the modeled-disk accounting for size bytes on nd —
// wake a sleeping spindle, charge service time, attribute the energy —
// without performing the file I/O itself (the stream loop does that
// incrementally). op names the disk-level child span.
func (n *Node) chargeDisk(nd *nodeDisk, size int64, sequential bool, ra reqAttrib, op string) {
	sp := ra.span.Child(op)
	sp.Annotate("disk", nd.label)
	defer sp.Finish()
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.beginWork(ra, sp)
	defer nd.endWork()
	n.wakeLocked(nd, sp)
	n.serviceLocked(nd, size, sequential)
}

// dataSegs lists the data-disk extents of entry in byte order: the whole
// file on its primary disk, or the stripe chunks round-robined across
// the spindles.
func (n *Node) dataSegs(entry metadata.NodeEntry) []streamSeg {
	spans := n.stripeSpans(entry.Size)
	if len(spans) == 1 {
		nd := n.data[entry.Disk]
		return []streamSeg{{nd: nd, path: filepath.Join(nd.dir, fileName(int64(entry.ID))), size: entry.Size}}
	}
	segs := make([]streamSeg, len(spans))
	for i, span := range spans {
		nd := n.data[(entry.Disk+i)%len(n.data)]
		segs[i] = streamSeg{nd: nd, path: filepath.Join(nd.dir, chunkName(int64(entry.ID), i)), size: span}
	}
	return segs
}

// handleStreamRead streams one file to the peer: open response first,
// then data chunks under the peer-granted credit window, then a clean
// end. One pooled chunk buffer is resident per stream regardless of file
// size.
func (n *Node) handleStreamRead(req proto.StreamOpenReq, sp *telemetry.Span, st *srvStream) error {
	entry, ok := n.meta.Lookup(int(req.FileID))
	if !ok {
		return fmt.Errorf("fs: read of unknown file %d", req.FileID)
	}
	n.noteAccess(int(req.FileID))
	ra := spanAttrib(sp, req.FileID)

	n.mu.Lock()
	_, isDirty := n.dirty[int(req.FileID)]
	n.mu.Unlock()

	// Source selection mirrors handleRead: the buffer disk when it holds
	// the newest copy (prefetched replica or unflushed buffered write),
	// the data disks otherwise — including fallback on buffer damage.
	var segs []streamSeg
	fromBuffer := false
	if entry.Prefetched || isDirty {
		path := filepath.Join(n.buffer.dir, fileName(int64(entry.ID)))
		if _, err := os.Stat(path); err == nil {
			segs = []streamSeg{{nd: n.buffer, path: path, size: entry.Size}}
			fromBuffer = true
		} else {
			n.logger.Printf("buffer stream of file %d failed, falling back: %v", req.FileID, err)
		}
	}
	if segs == nil {
		segs = n.dataSegs(entry)
	}
	if fromBuffer {
		n.mu.Lock()
		n.hits++
		n.mu.Unlock()
		n.hitsC.Inc()
	} else {
		n.mu.Lock()
		n.misses++
		n.mu.Unlock()
		n.missesC.Inc()
	}

	// Charge the modeled disks up front (spin-up + full service time, as
	// the RPC read does), then move the bytes at wire speed.
	for _, seg := range segs {
		n.chargeDisk(seg.nd, seg.size, false, ra, "disk.stream.read")
	}

	chunk := proto.NegotiateChunk(req.ChunkSize, n.cfg.StreamChunkBytes)
	window := proto.ClampStreamWindow(req.Window)
	st.grantCredits(window)
	resp := proto.StreamOpenResp{
		FromBuffer: fromBuffer,
		Size:       entry.Size,
		ChunkSize:  uint32(chunk),
		Window:     uint32(window),
	}
	if err := st.sendFrame(proto.TStreamOpenResp, resp.Encode()); err != nil {
		return err
	}

	buf := proto.GetChunk(chunk)
	defer proto.PutChunk(buf)
	sent := int64(0)
	for _, seg := range segs {
		f, err := os.Open(seg.path)
		if err != nil {
			return err
		}
		remaining := seg.size
		for remaining > 0 {
			m := int64(chunk)
			if remaining < m {
				m = remaining
			}
			if _, err := io.ReadFull(f, buf[:m]); err != nil {
				f.Close()
				return fmt.Errorf("fs: file %d truncated on disk: %w", req.FileID, err)
			}
			if err := st.sendData(buf[:m], proto.StreamStallTimeout(n.cfg.WriteTimeout)); err != nil {
				f.Close()
				return err
			}
			remaining -= m
			sent += m
			n.streamChunksC.Inc()
			n.streamBytesC.Add(m)
		}
		f.Close()
	}
	sp.Annotate("stream.bytes", fmt.Sprint(sent))
	return st.sendEnd(false)
}

// segWriter lands an inbound byte stream across the on-disk extents of a
// file, writing each as a ".part" sibling that commit renames into
// place — an aborted stream never leaves a half-written visible file.
type segWriter struct {
	segs []streamSeg
	idx  int
	f    *os.File
	rem  int64 // bytes left in the current segment
}

func newSegWriter(segs []streamSeg) *segWriter { return &segWriter{segs: segs} }

// write lands b, splitting across segment boundaries as needed.
func (w *segWriter) write(b []byte) error {
	for len(b) > 0 {
		if w.f == nil {
			if w.idx >= len(w.segs) {
				return fmt.Errorf("fs: stream write overruns declared size")
			}
			f, err := os.Create(w.segs[w.idx].path + ".part")
			if err != nil {
				return err
			}
			w.f, w.rem = f, w.segs[w.idx].size
		}
		m := int64(len(b))
		if m > w.rem {
			m = w.rem
		}
		if _, err := w.f.Write(b[:m]); err != nil {
			return err
		}
		b = b[m:]
		w.rem -= m
		if w.rem == 0 {
			err := w.f.Close()
			w.f = nil
			w.idx++
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// commit renames every completed ".part" file into place.
func (w *segWriter) commit() error {
	if w.f != nil || w.idx != len(w.segs) {
		return fmt.Errorf("fs: stream write ended short of declared size")
	}
	for _, seg := range w.segs {
		if err := os.Rename(seg.path+".part", seg.path); err != nil {
			return err
		}
	}
	return nil
}

// abandon discards all partial state.
func (w *segWriter) abandon() {
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	for _, seg := range w.segs {
		os.Remove(seg.path + ".part")
	}
}

// handleStreamWrite receives one file from the peer under a node-granted
// credit window and commits it with the same placement and metadata
// semantics as the RPC write path (write-buffer absorption, stale-mirror
// invalidation, size updates).
func (n *Node) handleStreamWrite(req proto.StreamOpenReq, sp *telemetry.Span, st *srvStream) error {
	if req.Size <= 0 {
		return fmt.Errorf("fs: stream write of file %d with size %d", req.FileID, req.Size)
	}
	entry, ok := n.meta.Lookup(int(req.FileID))
	if !ok {
		return fmt.Errorf("fs: write to unknown file %d", req.FileID)
	}
	n.noteAccess(int(req.FileID))
	ra := spanAttrib(sp, req.FileID)
	name := fileName(req.FileID)

	buffered := n.cfg.WriteBuffer && n.bufferHasRoom(req.Size)
	var segs []streamSeg
	if buffered {
		segs = []streamSeg{{nd: n.buffer, path: filepath.Join(n.buffer.dir, name), size: req.Size}}
	} else {
		// Placement must match what a later readDataFile will look for:
		// recompute the extents at the incoming size.
		sized := entry
		sized.Size = req.Size
		segs = n.dataSegs(sized)
	}
	for _, seg := range segs {
		n.chargeDisk(seg.nd, seg.size, seg.nd.isBuffer, ra, "disk.stream.write")
	}

	chunk := proto.NegotiateChunk(req.ChunkSize, n.cfg.StreamChunkBytes)
	window := proto.ClampStreamWindow(req.Window)
	resp := proto.StreamOpenResp{
		FromBuffer: buffered,
		Size:       req.Size,
		ChunkSize:  uint32(chunk),
		Window:     uint32(window),
	}
	if err := st.sendFrame(proto.TStreamOpenResp, resp.Encode()); err != nil {
		return err
	}

	w := newSegWriter(segs)
	received := int64(0)
	sinceCredit := 0
	for {
		msg, err := st.recvMsg(proto.StreamStallTimeout(n.cfg.WriteTimeout))
		if err != nil {
			w.abandon()
			return err
		}
		switch msg.t {
		case proto.TDataFrame:
			m := int64(len(msg.payload))
			if received+m > req.Size {
				proto.PutChunk(msg.payload)
				w.abandon()
				return fmt.Errorf("fs: stream write of file %d overran declared size %d", req.FileID, req.Size)
			}
			werr := w.write(msg.payload)
			proto.PutChunk(msg.payload)
			if werr != nil {
				w.abandon()
				return werr
			}
			received += m
			n.streamChunksC.Inc()
			n.streamBytesC.Add(m)
			// Replenish the sender's window as chunks are consumed.
			sinceCredit++
			if sinceCredit >= window/2 || sinceCredit >= window {
				if err := st.sendFrame(proto.TStreamCredit, proto.StreamCredit{N: uint32(sinceCredit)}.Encode()); err != nil {
					w.abandon()
					return err
				}
				sinceCredit = 0
			}
		case proto.TStreamEnd:
			if received != req.Size {
				w.abandon()
				return fmt.Errorf("fs: stream write of file %d ended at %d of %d bytes",
					req.FileID, received, req.Size)
			}
			if err := w.commit(); err != nil {
				w.abandon()
				return err
			}
			n.commitWrite(entry, req.Size, buffered)
			sp.Annotate("stream.bytes", fmt.Sprint(received))
			return st.sendEnd(buffered)
		case proto.TStreamAbort:
			w.abandon()
			return decodeStreamAbort(msg.payload)
		default:
			w.abandon()
			st.conn.Close()
			return fmt.Errorf("fs: unexpected frame type %d on write stream", msg.t)
		}
	}
}

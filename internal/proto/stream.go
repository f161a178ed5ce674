// Streaming data plane (DESIGN.md §19): chunked TDataFrames interleaved
// by request id on the multiplexed connection, so multi-MB files move
// through O(chunk) memory instead of one whole-payload response frame.
//
// Wire shape of a read stream (client pulls from a node):
//
//	client                             node
//	  TStreamReadReq{file, chunk, win} ->
//	                                   <- TStreamOpenResp{fromBuffer, size}
//	                                   <- TDataFrame xN   (within win credits)
//	  TStreamCredit{n} ->                                 (replenish)
//	                                   <- TStreamEnd      (clean end)
//
// A write stream is the mirror image: the node grants the window in its
// TStreamOpenResp, the client sends TDataFrames within it, closes with
// TStreamEnd, and the node answers with a final TStreamEnd{Buffered}.
// Either side may send TStreamAbort (an ErrorMsg payload) instead; it
// terminates the stream with a typed *RemoteError and leaves the
// connection — and every other stream and round trip on it — healthy.
// Transport faults keep the all-or-nothing rule: poisoning a connection
// generation fails every open stream with the same typed error.
//
// Both ends of every stream run the one Stream type below; this file is
// the wire messages and that type, stream_dial.go the dialing side's
// io.Reader/io.Writer adaptors over it.
package proto

import (
	"fmt"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Stream chunk/window defaults and bounds. The chunk pools recycle
// buffers of up to MaxStreamChunk capacity, so every negotiable chunk
// size is allocation-free in steady state.
const (
	DefaultStreamChunk  = 256 << 10
	MinStreamChunk      = 512
	MaxStreamChunk      = 4 << 20
	DefaultStreamWindow = 8
	MaxStreamWindow     = 64

	// streamRecvSlack pads a stream's receive queue past its credit
	// window: control frames (open response, end, abort, credits) ride
	// the same queue as data chunks. Exceeding window+slack means the
	// peer is violating flow control and kills the connection.
	streamRecvSlack = 8

	// maxStreamControl bounds a control frame on an open stream; the
	// largest legitimate one is an abort carrying an error text.
	maxStreamControl = 64 << 10
)

// chunkPools recycle stream chunks and read replies (steady-state
// streaming allocates nothing per chunk), one pool per power-of-two
// capacity class from MinStreamChunk to MaxStreamChunk: a buffer pins
// less than twice what it carries, so a 16 KiB reply waiting in a batch
// holds 32 KiB, not a stream chunk's 256.
var chunkPools = make([]sync.Pool, chunkClass(MaxStreamChunk)+1)

// chunkBoxes recycles the *[]byte boxes the chunk pools hold, so that
// PutChunk allocates no box: GetChunk empties the box its chunk came in
// and leaves it here, and PutChunk takes one back to fill.
var chunkBoxes sync.Pool

// chunkClass is the smallest class holding n bytes, n <= MaxStreamChunk.
func chunkClass(n int) int {
	return bits.Len(uint(max(n, MinStreamChunk)-1)) - bits.Len(MinStreamChunk-1)
}

// chunksInUse counts pooled chunks handed out and not yet returned.
var chunksInUse atomic.Int64

// ChunksInUse reports how many pooled chunk buffers are out of the pool:
// how a test shows that a stream path gave back every one it took.
func ChunksInUse() int64 { return chunksInUse.Load() }

// GetChunk returns a length-n buffer, pooled in the smallest class that
// holds it when n is at most MaxStreamChunk. Pair with PutChunk.
func GetChunk(n int) []byte {
	if n > MaxStreamChunk {
		return make([]byte, n)
	}
	chunksInUse.Add(1)
	c := chunkClass(n)
	if bp, ok := chunkPools[c].Get().(*[]byte); ok {
		b := (*bp)[:n]
		*bp = nil
		chunkBoxes.Put(bp)
		return b
	}
	return make([]byte, n, MinStreamChunk<<c)
}

// PutChunk returns a GetChunk buffer to its class's pool. A buffer of any
// other capacity — oversized, or not GetChunk's — is dropped for the GC.
func PutChunk(b []byte) {
	c := chunkClass(cap(b))
	if cap(b) > MaxStreamChunk || cap(b) != MinStreamChunk<<c {
		return
	}
	chunksInUse.Add(-1)
	bp, ok := chunkBoxes.Get().(*[]byte)
	if !ok {
		bp = new([]byte)
	}
	*bp = b[:cap(b)]
	chunkPools[c].Put(bp)
}

// NegotiateChunk picks the effective chunk size for one stream: the
// requester's ask, or the default when it asked for none — always clamped
// to the protocol bounds.
func NegotiateChunk(requested uint32) int {
	if requested == 0 {
		return DefaultStreamChunk
	}
	return min(max(int(requested), MinStreamChunk), MaxStreamChunk)
}

// ClampStreamWindow bounds a requested credit window (0 = default).
func ClampStreamWindow(requested uint32) int {
	w := int(requested)
	if w == 0 {
		w = DefaultStreamWindow
	}
	if w > MaxStreamWindow {
		w = MaxStreamWindow
	}
	return w
}

// StreamOpenReq opens a stream. For reads Size is 0 (the node knows);
// for writes it declares the exact byte count that will follow, so
// placement and buffer-capacity decisions happen before data moves.
// ChunkSize and Window are requests the serving side may clamp.
type StreamOpenReq struct {
	FileID    int64
	Size      int64
	ChunkSize uint32
	Window    uint32
}

// Encode serializes the message body.
func (m StreamOpenReq) Encode() []byte {
	var e Encoder
	return e.I64(m.FileID).I64(m.Size).U32(m.ChunkSize).U32(m.Window).Bytes()
}

// DecodeStreamOpenReq parses a StreamOpenReq payload.
func DecodeStreamOpenReq(b []byte) (StreamOpenReq, error) {
	d := NewDecoder(b)
	m := StreamOpenReq{FileID: d.I64(), Size: d.I64(), ChunkSize: d.U32(), Window: d.U32()}
	return m, d.Err()
}

// StreamOpenResp acknowledges a stream open with the negotiated
// parameters. For reads it also carries the total size to follow and
// whether the buffer disk serves it; for writes Window is the credit
// grant the client sends data under.
type StreamOpenResp struct {
	FromBuffer bool
	Size       int64
	ChunkSize  uint32
	Window     uint32
}

// Encode serializes the message body.
func (m StreamOpenResp) Encode() []byte { return m.appendTo(nil) }

// appendTo appends the encoded body to b.
func (m StreamOpenResp) appendTo(b []byte) []byte {
	e := Encoder{buf: b}
	return e.Bool(m.FromBuffer).I64(m.Size).U32(m.ChunkSize).U32(m.Window).Bytes()
}

// streamOpenRespLen is the length of an encoded StreamOpenResp.
const streamOpenRespLen = 1 + 8 + 4 + 4

// DecodeStreamOpenResp parses a StreamOpenResp payload.
func DecodeStreamOpenResp(b []byte) (StreamOpenResp, error) {
	d := NewDecoder(b)
	m := StreamOpenResp{FromBuffer: d.Bool(), Size: d.I64(), ChunkSize: d.U32(), Window: d.U32()}
	return m, d.Err()
}

// StreamEnd terminates a stream direction cleanly. The node's final
// frame on a write stream carries Buffered (whether the write-buffer
// area absorbed the content); everywhere else the flag is false.
type StreamEnd struct{ Buffered bool }

// Encode serializes the message body.
func (m StreamEnd) Encode() []byte { var e Encoder; return e.Bool(m.Buffered).Bytes() }

// streamEnds are the two encoded StreamEnds, indexed by Buffered: a
// stream's end frame is copied into the write half's batch, so one shared
// payload serves every stream.
var streamEnds = [2][]byte{StreamEnd{}.Encode(), StreamEnd{Buffered: true}.Encode()}

// DecodeStreamEnd parses a StreamEnd payload; an empty payload decodes
// to the zero value so bare end frames stay legal.
func DecodeStreamEnd(b []byte) (StreamEnd, error) {
	if len(b) == 0 {
		return StreamEnd{}, nil
	}
	d := NewDecoder(b)
	m := StreamEnd{Buffered: d.Bool()}
	return m, d.Err()
}

// StreamCredit replenishes N send credits on a stream.
type StreamCredit struct{ N uint32 }

// Encode serializes the message body.
func (m StreamCredit) Encode() []byte { var e Encoder; return e.U32(m.N).Bytes() }

// DecodeStreamCredit parses a StreamCredit payload.
func DecodeStreamCredit(b []byte) (StreamCredit, error) {
	d := NewDecoder(b)
	m := StreamCredit{N: d.U32()}
	return m, d.Err()
}

// remoteError turns a TError/TStreamAbort payload into the typed
// application error every RPC and stream path surfaces.
func remoteError(payload []byte) error {
	em, derr := DecodeErrorMsg(payload)
	if derr != nil {
		return fmt.Errorf("proto: undecodable error frame: %w", derr)
	}
	return &RemoteError{Code: em.Code, Msg: em.Msg, Redirect: em.Redirect}
}

// streamStallFactor scales a transport deadline into the per-frame
// stall bound for an open stream. An RPC response is the only frame its
// round trip waits on, but a stream chunk (or a flow-control credit, on
// the sending side) legitimately queues behind other streams' data
// frames and credit round trips on the shared multiplexed connection,
// so the stall bound must budget for that interleaving — the bare
// round-trip deadline misfires under concurrent streams on a slow link.
const streamStallFactor = 8

// StreamStallTimeout converts a single-round-trip deadline (RTTimeout on
// the client, the write timeout on a serving node) into the bound a
// stream applies between consecutive frames.
func StreamStallTimeout(rt time.Duration) time.Duration {
	return rt * streamStallFactor
}

// StreamConn is the connection under a Stream: on both sides its write
// half, a *FrameWriter.
type StreamConn interface {
	// SendFrame puts one frame of stream id on the wire, or queues it
	// behind the write in progress. The payload is the caller's again on
	// return.
	SendFrame(t Type, id uint32, payload []byte) error
	// Kill tears the connection down — every stream and round trip on it
	// fails — because of err.
	Kill(err error)
}

// frameBatcher is a StreamConn that puts several frames of a stream on
// the wire in one write, as FrameWriter.SendFrames does.
type frameBatcher interface {
	SendFrames(id uint32, frames []Frame) error
}

// streamMsg is one inbound frame of an open stream. TDataFrame payloads
// are pooled chunk buffers; control-frame payloads are plain allocations.
type streamMsg struct {
	t       Type
	payload []byte
}

// Stream is one end of one open stream, the same on the side that dialed
// and the side that accepted: the bounded inbound queue the connection's
// demux reader delivers into, and the credit-window protocol its owner —
// exactly one goroutine — runs on top. The receiving half enforces what
// it granted: at most window data frames (plus slack for control frames)
// undelivered, none longer than the negotiated chunk, exactly the
// declared size in total.
type Stream struct {
	id    uint32
	conn  StreamConn
	stall time.Duration  // longest wait for the peer's next frame
	timer *time.Timer    // times next's waits, stopped between them; nil until the first
	recv  chan streamMsg // window + streamRecvSlack deep
	done  chan struct{}  // closed exactly once, by Fail

	mu      sync.Mutex
	err     error // why the connection died (nil while it lives)
	discard bool  // owner gone: inbound frames are dropped on arrival
	limit   int   // longest legal inbound data frame

	// The owner's state.
	window  int    // data frames the peer may have undelivered
	owed    int    // chunks consumed since the last replenishment
	credits int    // data frames this end may still send
	want    int64  // bytes the sending end declared
	got     int64  // bytes received so far
	cur     []byte // the chunk RecvChunk handed out last
	ended   bool   // the peer's terminal frame has been consumed

	// held is the open response AcceptDeferred keeps for the next frame
	// this end sends (nil: none), encoded into heldBuf; out is what send
	// hands the connection.
	held    []byte
	heldBuf [streamOpenRespLen]byte
	out     [3]Frame

	// plant is the conformance suite's planted bug, tests only:
	// plantNoReplenish never returns a credit, plantNoSizeCheck takes any
	// end for a clean one.
	plant string
}

const (
	plantNoReplenish = "no-replenish"
	plantNoSizeCheck = "no-size-check"
)

// NewStream makes the end of stream id on c that grants its peer window
// data frames. Inbound data stays illegal until Accept (or the dialing
// side's open) fixes the chunk size.
func NewStream(id uint32, c StreamConn, stall time.Duration, window int) *Stream {
	return &Stream{
		id: id, conn: c, stall: stall, window: window,
		recv: make(chan streamMsg, window+streamRecvSlack),
		done: make(chan struct{}),
	}
}

// streamFrameType reports whether t is legal on an open stream id.
func streamFrameType(t Type) bool {
	switch t {
	case TDataFrame, TStreamOpenResp, TStreamEnd, TStreamAbort, TStreamCredit, TError:
		return true
	}
	return false
}

// streamTerminal reports whether t retires a stream id: after it the
// peer sends nothing further for the id.
func streamTerminal(t Type) bool {
	return t == TStreamEnd || t == TStreamAbort || t == TError
}

// Deliver is the demux reader's half: it reads the n-byte payload of a
// type-t frame addressed to this stream from r and queues it for the
// owner, data into a pooled chunk. An error means the peer broke the
// protocol — illegal type, oversized frame, more frames than it was
// granted — or r failed, and the caller must kill the connection;
// violations are caught from the header, before the payload is buffered.
func (st *Stream) Deliver(t Type, n int, r io.Reader) error {
	st.mu.Lock()
	limit, discard := st.limit, st.discard
	st.mu.Unlock()
	data := t == TDataFrame
	if !data {
		limit = maxStreamControl
	}
	switch {
	case !streamFrameType(t):
		return fmt.Errorf("proto: frame type %d is illegal on stream id %d", t, st.id)
	case n > limit:
		return fmt.Errorf("proto: %d-byte frame of type %d on stream %d exceeds the negotiated %d", n, t, st.id, limit)
	case !discard && len(st.recv) == cap(st.recv):
		return fmt.Errorf("proto: stream %d receive overrun (flow-control credit violation)", st.id)
	}
	var payload []byte
	if data {
		payload = GetChunk(n)
	} else {
		payload = make([]byte, n)
	}
	_, err := io.ReadFull(r, payload)
	if err == nil {
		// Queued under mu so that no frame slips in behind Release's
		// drain. The send cannot block: this is the queue's one producer
		// and it saw room above.
		st.mu.Lock()
		if discard = st.discard; !discard {
			st.recv <- streamMsg{t: t, payload: payload}
		}
		st.mu.Unlock()
	}
	if data && (err != nil || discard) {
		PutChunk(payload)
	}
	return err
}

// Fail records that the connection died of err and wakes the owner. Safe
// to call more than once; the first error wins.
func (st *Stream) Fail(err error) {
	st.mu.Lock()
	first := st.err == nil
	if first {
		st.err = err
	}
	st.mu.Unlock()
	if first {
		close(st.done)
	}
}

// fault returns why the connection died (nil while it lives).
func (st *Stream) fault() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.err
}

// violation kills the connection over err.
func (st *Stream) violation(err error) error {
	st.conn.Kill(err)
	return err
}

// next blocks for the stream's next inbound frame — queued frames first,
// then the connection's death or the stall bound — and settles what every
// state of the protocol treats alike: a peer abort returns as its typed
// *RemoteError, a frame type other than a or b kills the connection. So
// does the stall bound expiring, exactly like an RPC round-trip timeout:
// a frame that never arrived leaves every in-flight id in doubt.
func (st *Stream) next(a, b Type) (streamMsg, error) {
	var msg streamMsg
	select {
	case msg = <-st.recv:
	default:
		// One timer per stream, made at its first wait: a later wait
		// allocates nothing, and a stream that never waits — the node's
		// end of a read within its window — allocates none.
		if st.timer == nil {
			st.timer = time.NewTimer(st.stall)
		} else {
			st.timer.Reset(st.stall)
		}
		defer st.timer.Stop()
		select {
		case msg = <-st.recv:
		case <-st.done:
			// Deliveries may have raced the connection's death.
			select {
			case msg = <-st.recv:
			default:
				return msg, st.fault()
			}
		case <-st.timer.C:
			return msg, st.violation(errRTTimeout{})
		}
	}
	st.ended = streamTerminal(msg.t)
	switch msg.t {
	case a, b:
		return msg, nil
	case TStreamAbort, TError:
		return msg, remoteError(msg.payload)
	case TDataFrame:
		PutChunk(msg.payload)
	}
	return msg, st.violation(fmt.Errorf("proto: unexpected frame type %d on stream %d", msg.t, st.id))
}

// adopt takes the stream's parameters from its open response: the send
// allowance and the size to expect.
func (st *Stream) adopt(resp StreamOpenResp) {
	st.credits = ClampStreamWindow(resp.Window)
	st.want = resp.Size
}

// Accept answers the peer's open, on the accepting side: resp carries the
// negotiated chunk size and the declared size, Accept fills in the window.
// The answer leaves at once: a write stream's peer waits for its grant.
func (st *Stream) Accept(resp StreamOpenResp) error {
	st.AcceptDeferred(resp)
	return st.send()
}

// AcceptDeferred is Accept for an end that sends next — a read stream's
// node: the answer is held and leaves in the same write as the next frame
// this end sends, its first chunk, its end or an abort.
func (st *Stream) AcceptDeferred(resp StreamOpenResp) {
	resp.Window = uint32(st.window)
	st.mu.Lock()
	st.limit = int(resp.ChunkSize)
	st.mu.Unlock()
	st.adopt(resp)
	st.held = resp.appendTo(st.heldBuf[:0])
}

// send puts frames of this stream on the wire behind the open response
// this end holds, if it holds one: in one write where the connection
// batches (FrameWriter does), one frame after the other where it does not.
func (st *Stream) send(frames ...Frame) error {
	out := st.out[:0]
	if st.held != nil {
		out = append(out, Frame{T: TStreamOpenResp, Payload: st.held})
		st.held = nil
	}
	out = append(out, frames...)
	defer clear(out) // the payloads are the caller's
	if b, ok := st.conn.(frameBatcher); ok && len(out) > 1 {
		return b.SendFrames(st.id, out)
	}
	for _, f := range out {
		if err := st.conn.SendFrame(f.T, st.id, f.Payload); err != nil {
			return err
		}
	}
	return nil
}

// awaitOpen waits for the peer's answer to our open, on the dialing side.
func (st *Stream) awaitOpen() (StreamOpenResp, error) {
	msg, err := st.next(TStreamOpenResp, TStreamOpenResp)
	if err != nil {
		return StreamOpenResp{}, err
	}
	resp, err := DecodeStreamOpenResp(msg.payload)
	if err != nil {
		return resp, st.violation(err)
	}
	st.adopt(resp)
	return resp, nil
}

// SendChunk sends b as one data frame, first waiting out the peer's
// credit window if it is spent. A peer abort surfaces as its typed error,
// so a sender can stop reading its disk at once.
func (st *Stream) SendChunk(b []byte) error {
	if err := st.awaitCredit(); err != nil {
		return err
	}
	return st.send(Frame{T: TDataFrame, Payload: b})
}

// EndWith is SendChunk(b) followed by End(false) in one write: the last
// chunk of a read stream leaves with the stream's end.
func (st *Stream) EndWith(b []byte) error {
	if err := st.awaitCredit(); err != nil {
		return err
	}
	return st.send(Frame{T: TDataFrame, Payload: b}, Frame{T: TStreamEnd, Payload: streamEnds[0]})
}

// awaitCredit takes one send credit, waiting for the peer to return some
// if the window is spent.
func (st *Stream) awaitCredit() error {
	for st.credits <= 0 {
		msg, err := st.next(TStreamCredit, TStreamCredit)
		if err != nil {
			return err
		}
		c, err := DecodeStreamCredit(msg.payload)
		if err != nil {
			return st.violation(err)
		}
		st.credits += int(c.N)
	}
	st.credits--
	return nil
}

// RecvChunk returns the stream's next data chunk, valid until the next
// call, or nil once the sender has ended the stream after exactly the
// declared size (not io.EOF: a connection's death can be one); a stream
// that ends short of it, or runs past it, is an error. Asking for the
// next chunk is what tells the stream the last one is consumed: credits
// go back to the sender half a window at a time.
func (st *Stream) RecvChunk() ([]byte, error) {
	if st.cur != nil {
		PutChunk(st.cur)
		st.cur = nil
		if st.owed++; 2*st.owed >= st.window && st.plant != plantNoReplenish {
			if err := st.conn.SendFrame(TStreamCredit, st.id, StreamCredit{N: uint32(st.owed)}.Encode()); err != nil {
				return nil, err
			}
			st.owed = 0
		}
	}
	msg, err := st.next(TDataFrame, TStreamEnd)
	switch {
	case err != nil:
		return nil, err
	case msg.t == TStreamEnd && (st.got == st.want || st.plant == plantNoSizeCheck):
		return nil, nil
	case msg.t == TStreamEnd:
		return nil, fmt.Errorf("proto: stream %d ended at %d of %d bytes: %w", st.id, st.got, st.want, io.ErrUnexpectedEOF)
	}
	st.cur = msg.payload
	if st.got += int64(len(st.cur)); st.got > st.want {
		return nil, fmt.Errorf("proto: stream %d overran its declared %d bytes", st.id, st.want)
	}
	return st.cur, nil
}

// End ends the stream cleanly from this side. buffered is the accepting
// side's report on a write stream; everywhere else it is false.
func (st *Stream) End(buffered bool) error {
	end := streamEnds[0]
	if buffered {
		end = streamEnds[1]
	}
	return st.send(Frame{T: TStreamEnd, Payload: end})
}

// awaitEnd waits for the peer's end marker answering ours, passing over
// replenishments that crossed it.
func (st *Stream) awaitEnd() (StreamEnd, error) {
	for {
		msg, err := st.next(TStreamEnd, TStreamCredit)
		if err != nil {
			return StreamEnd{}, err
		}
		if msg.t == TStreamEnd {
			end, err := DecodeStreamEnd(msg.payload)
			if err != nil {
				err = st.violation(err)
			}
			return end, err
		}
	}
}

// Abort ends the stream from this side with a failure — errMsg is an
// encoded ErrorMsg — and releases it. The connection and its other
// streams stay healthy.
func (st *Stream) Abort(errMsg []byte) {
	st.Release()
	_ = st.send(Frame{T: TStreamAbort, Payload: errMsg}) // a dead connection has told the peer already
}

// hangUp is how the dialing side lets go of a stream. The accepting side
// has the last word on every stream — its terminal frame is what retires
// the id here — so a stream it has not ended yet is aborted, and stays
// registered, dropping what arrives, until that frame comes.
func (st *Stream) hangUp(why string) {
	if st.ended {
		st.Release()
	} else {
		st.Abort(ErrorMsg{Msg: why}.Encode())
	}
}

// Release is the owner's last call: chunks held or still queued go back to
// the pool, and whatever the peer still has in flight for the id is
// dropped on arrival.
func (st *Stream) Release() {
	st.mu.Lock()
	st.discard = true
	st.mu.Unlock()
	if st.cur != nil {
		PutChunk(st.cur)
		st.cur = nil
	}
	for {
		select {
		case msg := <-st.recv:
			if msg.t == TDataFrame {
				PutChunk(msg.payload)
			}
		default:
			return
		}
	}
}

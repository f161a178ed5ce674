// Package proto defines the wire protocol of the EEVFS prototype
// (Section IV-A: the storage server keeps a TCP connection per storage
// node; clients contact the server for metadata and then transfer data
// directly with the owning storage node).
//
// Framing: a connection opens with the 4-byte magic "EEV2", then every
// frame is [u32 length][u8 type][u32 id][payload]; length covers type +
// id + payload. The id correlates a response with its request, so many
// round trips can be in flight on one connection and responses may
// arrive in any order; the frames of one stream share their open frame's
// id. A peer that does not open with the magic is hung up on. The magic
// is larger than MaxFrame, so it can never be read as a frame length.
//
// Integers are big-endian; strings and byte slices are length-prefixed
// (u32). Frames are capped to prevent a malformed peer from forcing
// huge allocations.
package proto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"sync"
)

// MaxFrame bounds a single frame: 256 MiB covers the evaluation's largest
// files (50 MB) with ample margin.
const MaxFrame = 256 << 20

// Type identifies a message.
type Type uint8

// Message types. Req/Resp pairs share a numeric neighborhood.
const (
	TError Type = iota + 1
	TCreateReq
	TCreateResp
	TLookupReq
	TLookupResp
	TListReq
	TListResp
	TDeleteReq
	TDeleteResp
	TStatsReq
	TStatsResp
	TPrefetchReq
	TPrefetchResp
	TNodeCreateReq
	TNodeCreateResp
	TNodeReadReq
	TNodeReadResp
	TNodeWriteReq
	TNodeWriteResp
	TNodeDeleteReq
	TNodeDeleteResp
	TNodeStatsReq
	TNodeStatsResp
	TNodePrefetchReq
	TNodePrefetchResp
	TNodeReadAtReq
	TNodeReadAtResp
	TNodeHintsReq
	TNodeHintsResp
	// Replication frames carry the metadata op log between servers in a
	// replicated group. Appended after every earlier type so the numeric
	// values of the existing frames never move (wire compatibility).
	TRepAppendReq
	TRepAppendResp
	TRepSnapshotReq
	TRepSnapshotResp
	TRepStatusReq
	TRepStatusResp
	// TLookupWriteReq is a lookup that declares write intent; the server
	// invalidates any buffer-disk replica before answering with a plain
	// TLookupResp, so a subsequent direct write cannot leave a stale
	// mirror behind.
	TLookupWriteReq
	// Streaming data plane (DESIGN.md §19). A stream is opened by a
	// TStreamReadReq or TStreamWriteReq carrying a StreamOpenReq; every
	// later frame of the stream reuses the open frame's request id,
	// interleaved with ordinary round trips on the same multiplexed
	// connection. TDataFrame payloads are raw chunk bytes (no length
	// prefix); TStreamEnd terminates a direction cleanly; TStreamAbort
	// (an ErrorMsg payload) terminates it with a typed failure; and
	// TStreamCredit replenishes the receiver-granted flow-control window.
	TStreamReadReq
	TStreamWriteReq
	TStreamOpenResp
	TDataFrame
	TStreamEnd
	TStreamAbort
	TStreamCredit
	// TAccessReq reports reads a client served from its location cache,
	// without a lookup, so the server still counts each of them once
	// (an AccessReq; TAccessResp has an empty body).
	TAccessReq
	TAccessResp
)

// Errors returned by the codec.
var (
	ErrFrameTooLarge = errors.New("proto: frame exceeds MaxFrame")
	ErrShortPayload  = errors.New("proto: truncated payload")
	errBadRepAccess  = errors.New("proto: access fold with a negative id, no accesses or unordered times")
	errBadAccessAge  = errors.New("proto: access report with a negative id, no accesses or unordered ages")
)

// MagicV2 is the connection preface. Read as a frame length it decodes
// to ~1.16 GB — far beyond MaxFrame — so a preface where a frame should
// be is rejected, never parsed.
const MagicV2 uint32 = 0x45455632 // "EEV2"

// Frame overhead past the length prefix: 1 type byte + 4 id bytes.
const v2HeaderLen = 5

// ErrShortV2Frame reports a frame too small to carry type + id.
var ErrShortV2Frame = errors.New("proto: frame shorter than its header")

// WritePreface sends the magic; every connection starts with it.
func WritePreface(w io.Writer) error {
	_, err := w.Write(binary.BigEndian.AppendUint32(nil, MagicV2))
	return err
}

// framePool recycles WriteFrameID's whole-frame encode buffers.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// appendFrameHeader appends the header of a frame with an n-byte payload.
func appendFrameHeader(buf []byte, t Type, id uint32, n int) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(v2HeaderLen+n))
	buf = append(buf, byte(t))
	return binary.BigEndian.AppendUint32(buf, id)
}

// appendFrameID appends one frame to buf.
func appendFrameID(buf []byte, t Type, id uint32, payload []byte) []byte {
	return append(appendFrameHeader(buf, t, id, len(payload)), payload...)
}

// WriteFrameID sends one frame, [u32 length][u8 type][u32 id][payload],
// in a single Write: how a peer with no write half (a test's) sends.
func WriteFrameID(w io.Writer, t Type, id uint32, payload []byte) error {
	if v2HeaderLen+len(payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	bp := framePool.Get().(*[]byte)
	buf := appendFrameID((*bp)[:0], t, id, payload)
	_, err := w.Write(buf)
	*bp = buf[:0]
	framePool.Put(bp)
	return err
}

// ReadFrameHeader receives one frame's header, returning its type,
// request id, and payload length. The caller reads (or discards) exactly
// that many payload bytes next — splitting header from payload lets
// stream demuxers route the payload into a pooled chunk buffer instead
// of a fresh allocation per frame.
//
// From a *bufio.Reader — every connection's read half — the header is
// decoded in place in the reader's buffer, so a frame costs no
// allocation; any other reader fills a fresh header. The errors are
// io.ReadFull's either way.
func ReadFrameHeader(r io.Reader) (Type, uint32, int, error) {
	var hdr []byte
	if br, ok := r.(*bufio.Reader); ok {
		p, err := br.Peek(4 + v2HeaderLen)
		if err != nil {
			if err == io.EOF && len(p) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, 0, 0, err
		}
		hdr = p
		br.Discard(len(p)) // already buffered: cannot fail, and p stays valid until the next read
	} else {
		hdr = make([]byte, 4+v2HeaderLen)
		if _, err := io.ReadFull(r, hdr); err != nil {
			return 0, 0, 0, err
		}
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < v2HeaderLen {
		return 0, 0, 0, ErrShortV2Frame
	}
	if n > MaxFrame {
		return 0, 0, 0, ErrFrameTooLarge
	}
	return Type(hdr[4]), binary.BigEndian.Uint32(hdr[5:]), int(n - v2HeaderLen), nil
}

// ReadFrameID receives one frame, returning its type, request id, and
// payload. The payload is freshly allocated and owned by the caller.
func ReadFrameID(r io.Reader) (Type, uint32, []byte, error) {
	t, id, n, err := ReadFrameHeader(r)
	if err != nil {
		return 0, 0, nil, err
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, 0, nil, err
	}
	return t, id, payload, nil
}

// Encoder builds a payload.
type Encoder struct{ buf []byte }

// Bytes returns the accumulated payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// U32 appends a big-endian uint32.
func (e *Encoder) U32(v uint32) *Encoder {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	e.buf = append(e.buf, b[:]...)
	return e
}

// U64 appends a big-endian uint64.
func (e *Encoder) U64(v uint64) *Encoder {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	e.buf = append(e.buf, b[:]...)
	return e
}

// I64 appends an int64 (two's complement).
func (e *Encoder) I64(v int64) *Encoder { return e.U64(uint64(v)) }

// F64 appends a float64 (IEEE 754 bits).
func (e *Encoder) F64(v float64) *Encoder {
	return e.U64(math.Float64bits(v))
}

// Bool appends a byte 0/1.
func (e *Encoder) Bool(v bool) *Encoder {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
	return e
}

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) *Encoder {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
	return e
}

// Blob appends a length-prefixed byte slice.
func (e *Encoder) Blob(b []byte) *Encoder {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
	return e
}

// Decoder consumes a payload.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps a payload.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first decode error (ErrShortPayload on truncation).
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.err = ErrShortPayload
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U32 reads a big-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// I64 reads an int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// F64 reads a float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a byte as bool.
func (d *Decoder) Bool() bool {
	b := d.take(1)
	return b != nil && b[0] != 0
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	n := d.U32()
	if d.err != nil {
		return ""
	}
	if uint64(n) > uint64(d.Remaining()) {
		d.err = ErrShortPayload
		return ""
	}
	return string(d.take(int(n)))
}

// Blob reads a length-prefixed byte slice (copy-free view into the
// payload; callers that retain it must copy).
func (d *Decoder) Blob() []byte {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	if uint64(n) > uint64(d.Remaining()) {
		d.err = ErrShortPayload
		return nil
	}
	return d.take(int(n))
}

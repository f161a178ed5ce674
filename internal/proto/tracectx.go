// Trace-context frame extension: how a SpanContext rides the wire.
//
// A traced frame sets the high bit of the type byte (FlagTraced — every
// real Type fits in 7 bits) and prefixes the payload with a fixed
// 25-byte header:
//
//	[u8 flags][u64 trace id][u64 span id][u64 parent id]
//
// flags bit 0 carries the head-sampling decision. The extension lives
// inside a frame's (type, payload) pair and is strictly optional:
// requests are only flagged by tracing clients; responses are never
// flagged.
package proto

import (
	"encoding/binary"
	"fmt"

	"eevfs/internal/telemetry"
)

// FlagTraced marks a frame whose payload starts with a trace-context
// header. It occupies the type byte's high bit, disjoint from every
// frame type.
const FlagTraced Type = 0x80

// traceCtxLen is the fixed size of the trace-context payload prefix.
const traceCtxLen = 1 + 8 + 8 + 8

const flagSampled = 0x01

// AttachContext prepends sc to the payload and sets FlagTraced on the
// type. A zero context returns the inputs unchanged, so call sites can
// attach unconditionally.
func AttachContext(t Type, payload []byte, sc telemetry.SpanContext) (Type, []byte) {
	if sc.TraceID == 0 {
		return t, payload
	}
	buf := make([]byte, traceCtxLen+len(payload))
	if sc.Sampled {
		buf[0] = flagSampled
	}
	binary.BigEndian.PutUint64(buf[1:], sc.TraceID)
	binary.BigEndian.PutUint64(buf[9:], sc.SpanID)
	binary.BigEndian.PutUint64(buf[17:], sc.ParentID)
	copy(buf[traceCtxLen:], payload)
	return t | FlagTraced, buf
}

// ExtractContext undoes AttachContext: it strips FlagTraced and the
// payload prefix, returning the inner type, payload, and context. An
// unflagged frame passes through untouched with a zero context. A
// flagged frame too short to hold the header is a protocol error.
func ExtractContext(t Type, payload []byte) (Type, []byte, telemetry.SpanContext, error) {
	if t&FlagTraced == 0 {
		return t, payload, telemetry.SpanContext{}, nil
	}
	if len(payload) < traceCtxLen {
		return 0, nil, telemetry.SpanContext{},
			fmt.Errorf("proto: traced frame payload %d bytes, need >= %d", len(payload), traceCtxLen)
	}
	sc := telemetry.SpanContext{
		TraceID:  binary.BigEndian.Uint64(payload[1:]),
		SpanID:   binary.BigEndian.Uint64(payload[9:]),
		ParentID: binary.BigEndian.Uint64(payload[17:]),
		Sampled:  payload[0]&flagSampled != 0,
	}
	return t &^ FlagTraced, payload[traceCtxLen:], sc, nil
}

package wire

import "encoding/binary"

// Trace context rides the v1 envelope as one reserved tagged field appended
// after the message's own fields. Decoders skip unknown tags (the Decoder
// consumes a whole field per Next), so a peer that predates the field — or
// any message's UnmarshalWire loop — ignores it without error; that is the
// same forward-compatibility contract new message fields rely on.
//
// Field value layout (TraceTag, wire type 2):
//
//	bytes 0..15   trace ID, big-endian (128-bit)
//	bytes 16..23  parent span ID, big-endian (64-bit)
//	bytes 24..    query/tenant ID, UTF-8 (may be empty)

// TraceTag is the reserved field tag carrying trace context. Message tags are
// append-only small integers; 2000 leaves them unbounded room while still
// encoding as a two-byte field key.
const TraceTag = 2000

// traceFixed is the fixed prefix of the field value: trace ID + span ID.
const traceFixed = 16 + 8

// TraceContext is the cross-process call identity: which trace the request
// belongs to, which caller span it descends from, and the query/tenant ID
// being charged.
type TraceContext struct {
	Trace [16]byte
	Span  uint64
	Query string
}

// IsZero reports whether there is nothing to propagate.
func (tc TraceContext) IsZero() bool {
	return tc.Trace == [16]byte{} && tc.Span == 0 && tc.Query == ""
}

// AppendTraceContext appends the trace-context field to an encoded binary v1
// payload. Payloads that are not binary envelopes are returned unchanged,
// as is a zero context.
func AppendTraceContext(raw []byte, tc TraceContext) []byte {
	if len(raw) == 0 || raw[0] != envelopeMagic || tc.IsZero() {
		return raw
	}
	raw = binary.AppendUvarint(raw, uint64(TraceTag)<<3|uint64(wtBytes))
	raw = binary.AppendUvarint(raw, uint64(traceFixed+len(tc.Query)))
	raw = append(raw, tc.Trace[:]...)
	raw = binary.BigEndian.AppendUint64(raw, tc.Span)
	return append(raw, tc.Query...)
}

// ExtractTraceContext scans a binary envelope for the trace-context field.
// It never fails: malformed payloads, non-envelope payloads and envelopes
// without the field all report ok=false and leave error surfacing to the
// real message decode.
func ExtractTraceContext(data []byte) (TraceContext, bool) {
	var tc TraceContext
	if len(data) == 0 || data[0] != envelopeMagic {
		return tc, false
	}
	v, n, err := ConsumeUvarint(data[1:])
	if err != nil || v == 0 {
		return tc, false
	}
	d := NewDecoder(data[1+n:])
	for d.Next() {
		if d.Tag() != TraceTag {
			continue
		}
		b := d.Bytes()
		if d.Err() != nil || len(b) < traceFixed {
			return TraceContext{}, false
		}
		copy(tc.Trace[:], b[:16])
		tc.Span = binary.BigEndian.Uint64(b[16:traceFixed])
		tc.Query = string(b[traceFixed:])
		return tc, !tc.IsZero()
	}
	return tc, false
}

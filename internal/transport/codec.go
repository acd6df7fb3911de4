package transport

import (
	"context"
	"fmt"

	"vfps/internal/obs"
	"vfps/internal/wire"
)

// WireStats reports the byte breakdown of one encoded request, so callers
// can charge their side of the traffic to the cost model.
type WireStats struct {
	Codec   string // codec the request was encoded with
	Payload int64  // value-content bytes (ciphertexts, keys, float scalars)
	Framing int64  // everything else: envelope, tags, length prefixes, ID lists
}

// CodecCaller wraps a Caller with message-level encoding. Every request and
// response carries the codec's version envelope; that envelope is the only
// version check, so a caller keeps no per-peer state.
type CodecCaller struct {
	caller Caller
	codec  wire.Codec
}

// NewCodecCaller wraps c; a nil codec means wire.Binary().
func NewCodecCaller(c Caller, codec wire.Codec) *CodecCaller {
	if codec == nil {
		codec = wire.Binary()
	}
	return &CodecCaller{caller: c, codec: codec}
}

// Invoke encodes req, calls the method, and decodes the response into resp
// (a response envelope newer than the codec's version is a typed
// *wire.UnsupportedVersionError). Either message may be nil: a nil req sends
// a bare envelope, a nil resp discards the response body. The returned
// WireStats cover the request encoding even when the call itself fails.
func (cc *CodecCaller) Invoke(ctx context.Context, peer, method string, req, resp wire.Message) (WireStats, error) {
	codec := cc.codec
	var raw []byte
	var payload int64
	var err error
	if req != nil {
		raw, payload, err = wire.MarshalMeasured(codec, req)
	} else {
		raw, err = codec.Marshal(nil)
	}
	if err != nil {
		return WireStats{}, err
	}
	// Inject the caller's trace context as a reserved trailing field of the
	// envelope, so the server parents its spans under the caller's across
	// the process boundary. Peers that predate the field skip the unknown
	// tag. The extra bytes are framing, never payload.
	if sc, ok := obs.SpanContextOf(ctx); ok {
		raw = wire.AppendTraceContext(raw, wire.TraceContext{
			Trace: [16]byte(sc.Trace),
			Span:  sc.Span,
			Query: obs.QueryIDFromContext(ctx),
		})
	}
	st := WireStats{Codec: codec.Name(), Payload: payload, Framing: int64(len(raw)) - payload}
	out, err := cc.caller.Call(ctx, peer, method, raw)
	if err != nil {
		return st, err
	}
	if resp == nil {
		return st, nil
	}
	if _, err := wire.DetectMax(out, codec.Version()); err != nil {
		return st, fmt.Errorf("transport: response from %s: %w", peer, err)
	}
	if err := codec.Unmarshal(out, resp); err != nil {
		return st, fmt.Errorf("transport: response from %s: %w", peer, err)
	}
	return st, nil
}

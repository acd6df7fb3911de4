package vfl

import (
	"sync/atomic"

	"vfps/internal/costmodel"
	"vfps/internal/obs"
	"vfps/internal/wire"
)

// roleCodec is the wire-codec slot embedded in every protocol role. It holds
// the codec the role speaks (wire.Binary unless SetCodec says otherwise):
// outbound requests use it, and inbound requests without its envelope or
// from a newer protocol version are rejected with a typed error. The
// indirection through a box struct keeps the atomic happy across differing
// concrete codec types.
type roleCodec struct {
	c atomic.Pointer[codecBox]
}

type codecBox struct{ codec wire.Codec }

// codec returns the configured codec (wire.Binary by default).
func (r *roleCodec) codec() wire.Codec {
	if b := r.c.Load(); b != nil {
		return b.codec
	}
	return wire.Binary()
}

func (r *roleCodec) setCodec(c wire.Codec) {
	if c == nil {
		c = wire.Binary()
	}
	r.c.Store(&codecBox{codec: c})
}

// reqCodec checks the envelope of an inbound request against the role's own
// version: a request without the envelope (such as one from a build that
// spoke encoding/gob) is wire.ErrCorrupt, and a future-version frame is
// *wire.UnsupportedVersionError. Responses are encoded with the returned
// codec.
func (r *roleCodec) reqCodec(req []byte) (wire.Codec, error) {
	return wire.DetectMax(req, r.codec().Version())
}

// metricWireBytes counts encoded protocol bytes split by codec and share.
const metricWireBytes = "vfps_wire_bytes"

func declareWire(reg *obs.Registry) *obs.CounterVec {
	return reg.Counter(metricWireBytes,
		"Encoded protocol message bytes by codec and share: payload is value content (ciphertext/key blobs, float scalars), framing is the wire overhead around it (envelope, field tags, length prefixes, pseudo-ID lists).",
		"codec", "kind")
}

// recordWire feeds one encoded message's byte split into the
// vfps_wire_bytes{codec,kind} counters. No-op without a registry.
func (r *roleObs) recordWire(codec string, payload, framing int64) {
	reg := r.o.Load().Registry()
	if reg == nil {
		return
	}
	v := declareWire(reg)
	v.With(codec, "payload").Add(payload)
	v.With(codec, "framing").Add(framing)
}

// reply encodes resp with the codec the requester used and charges the
// encoded bytes — payload into BytesSent, the rest into FramingBytes — to
// the responder's counters along with the operation counts in extra.
func reply(codec wire.Codec, resp wire.Message, counts *costmodel.Counts, ro *roleObs, extra costmodel.Raw) ([]byte, error) {
	raw, payload, err := wire.MarshalMeasured(codec, resp)
	if err != nil {
		return nil, err
	}
	framing := int64(len(raw)) - payload
	extra.BytesSent += payload
	extra.FramingBytes += framing
	counts.Add(extra)
	ro.recordWire(codec.Name(), payload, framing)
	return raw, nil
}

package wire

import (
	"encoding/binary"
	"fmt"
)

// envelopeMagic opens every payload: 0x00, then the uvarint version.
const envelopeMagic = 0x00

// MaxVersion is the newest protocol version this build speaks.
const MaxVersion uint64 = 1

// Codec serialises protocol messages. Implementations are stateless and safe
// for concurrent use.
type Codec interface {
	// Name is the knob value and metric label: "binary".
	Name() string
	// Version is the envelope version the codec writes.
	Version() uint64
	// Marshal encodes v. A nil v yields a bare envelope, so body-less
	// methods still carry the version check.
	Marshal(v any) ([]byte, error)
	// Unmarshal decodes data produced by the same codec into v (a pointer).
	// A nil v only checks the envelope.
	Unmarshal(data []byte, v any) error
}

var binaryC Codec = binaryCodec{}

// Binary returns the v1 compact binary codec, the only codec.
func Binary() Codec { return binaryC }

// ByName resolves a codec knob value: "binary", or empty for the default
// (also binary).
func ByName(name string) (Codec, error) {
	switch name {
	case "", "binary":
		return binaryC, nil
	default:
		return nil, fmt.Errorf("wire: unknown codec %q (want binary)", name)
	}
}

// Detect checks a payload's envelope, accepting any version this build
// speaks. See DetectMax.
func Detect(data []byte) (Codec, error) { return DetectMax(data, MaxVersion) }

// DetectMax checks a payload's envelope and returns the codec that decodes
// it. A payload without the envelope magic — an empty body, or a frame from
// a build that predates the binary codec — is ErrCorrupt, as is version 0.
// An envelope newer than maxVersion returns *UnsupportedVersionError, so
// future formats are rejected, never misparsed.
func DetectMax(data []byte, maxVersion uint64) (Codec, error) {
	if len(data) == 0 || data[0] != envelopeMagic {
		return nil, fmt.Errorf("%w: missing binary envelope", ErrCorrupt)
	}
	v, _, err := ConsumeUvarint(data[1:])
	if err != nil {
		return nil, fmt.Errorf("wire: envelope: %w", err)
	}
	if v == 0 {
		return nil, fmt.Errorf("%w: envelope version 0", ErrCorrupt)
	}
	if v > maxVersion || v > MaxVersion {
		return nil, &UnsupportedVersionError{Version: v, Max: min(maxVersion, MaxVersion)}
	}
	return binaryC, nil
}

// MarshalMeasured encodes v with the codec and also reports the payload
// share: the value-content bytes (ciphertext/key blobs, 8 per float scalar)
// out of len(raw). The remainder is framing — envelope, field keys, length
// prefixes and ID lists. costmodel charges
// the two shares to BytesSent and FramingBytes respectively.
func MarshalMeasured(c Codec, v any) (raw []byte, payload int64, err error) {
	raw, err = c.Marshal(v)
	if err != nil {
		return nil, 0, err
	}
	if m, ok := v.(Message); ok && v != nil {
		var e Encoder
		m.MarshalWire(&e)
		payload = e.Payload()
		if payload > int64(len(raw)) {
			// Defensive: framing must never go negative (cannot happen —
			// payload counts a subset of the encoded content).
			payload = int64(len(raw))
		}
	}
	return raw, payload, nil
}

// binaryCodec is format v1: envelope + tagged compact fields.
type binaryCodec struct{}

func (binaryCodec) Name() string    { return "binary" }
func (binaryCodec) Version() uint64 { return 1 }

func (binaryCodec) Marshal(v any) ([]byte, error) {
	head := []byte{envelopeMagic}
	head = binary.AppendUvarint(head, MaxVersion)
	if v == nil {
		return head, nil
	}
	m, ok := v.(Message)
	if !ok {
		return nil, fmt.Errorf("wire: %T does not implement wire.Message", v)
	}
	e := Encoder{buf: head}
	m.MarshalWire(&e)
	return e.buf, nil
}

func (binaryCodec) Unmarshal(data []byte, v any) error {
	if _, err := Detect(data); err != nil {
		return err
	}
	if v == nil {
		return nil
	}
	m, ok := v.(Message)
	if !ok {
		return fmt.Errorf("wire: %T does not implement wire.Message", v)
	}
	_, n, _ := ConsumeUvarint(data[1:]) // Detect validated the version varint
	if err := m.UnmarshalWire(NewDecoder(data[1+n:])); err != nil {
		return fmt.Errorf("wire: decoding %T: %w", v, err)
	}
	return nil
}

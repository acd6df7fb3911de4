// Package wire is the versioned, self-describing compact binary codec for
// the VFL protocol messages.
//
// Why it exists: after slot packing cut ciphertext volume ~15×, message
// framing and raw pseudo-ID lists became a leading share of BytesSent. The
// codec uses uvarint framing, zigzag varints, delta-coded pseudo-ID lists
// and length-prefixed ciphertext blobs.
//
// Format v1 (pinned by golden tests in golden_test.go):
//
//	payload   = envelope body
//	envelope  = 0x00 magic | uvarint version | body
//	body      = field*
//	field     = uvarint key | value            key = tag<<3 | wiretype
//	wiretype  = 0 varint (zigzag when signed), 1 fixed64 (float bits, LE),
//	            2 length-delimited bytes (uvarint length | raw bytes)
//	ID list   = wiretype 2: uvarint count | zigzag delta from previous id*
//	blob list = wiretype 2: uvarint count | (uvarint len | bytes)*
//
// Zero-valued fields are omitted; decoders treat absent fields as zero and
// skip unknown tags, so fields can be added in later versions without
// breaking v1 peers (forward-compatible tags). The envelope is the only
// version check: every payload, even a body-less one, carries it, a payload
// without it is ErrCorrupt, and a newer version is a typed
// *UnsupportedVersionError (see DetectMax). There is no per-peer handshake.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Typed decode errors. All corruption detected by the decoder unwraps to one
// of these, so callers can distinguish malformed input from version skew
// (*UnsupportedVersionError).
var (
	// ErrTruncated reports input that ends mid-value.
	ErrTruncated = errors.New("wire: truncated input")
	// ErrOverflow reports a varint wider than 64 bits.
	ErrOverflow = errors.New("wire: varint overflows 64 bits")
	// ErrWireType reports a field read with the wrong accessor for its
	// encoded wire type (schema mismatch).
	ErrWireType = errors.New("wire: field has unexpected wire type")
	// ErrCorrupt reports structurally invalid encoding: a bad wire type,
	// an element count exceeding the enclosing field, or a zero envelope
	// version.
	ErrCorrupt = errors.New("wire: corrupt encoding")
)

// UnsupportedVersionError reports an envelope from a protocol version newer
// than this node accepts. It is the typed rejection required for mixed
// clusters: a future-version payload must fail loudly, never be misparsed.
type UnsupportedVersionError struct {
	Version uint64 // version found in the envelope
	Max     uint64 // highest version this node accepts
}

func (e *UnsupportedVersionError) Error() string {
	return fmt.Sprintf("wire: unsupported protocol version %d (max %d)", e.Version, e.Max)
}

// Wire types.
const (
	wtVarint  = 0 // uvarint, or zigzag uvarint for signed fields
	wtFixed64 = 1 // 8 bytes little-endian (float64 bits)
	wtBytes   = 2 // uvarint length | raw bytes
)

// Zigzag maps a signed value to an unsigned one with small absolute values
// staying small: 0,-1,1,-2,... → 0,1,2,3,...
func Zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// Unzigzag inverts Zigzag.
func Unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// AppendUvarint appends v in base-128 varint encoding.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// ConsumeUvarint reads one uvarint from the front of data, returning the
// value and the number of bytes consumed.
func ConsumeUvarint(data []byte) (uint64, int, error) {
	v, n := binary.Uvarint(data)
	switch {
	case n > 0:
		return v, n, nil
	case n == 0:
		return 0, 0, ErrTruncated
	default:
		return 0, 0, ErrOverflow
	}
}

// AppendIDs appends a delta-coded pseudo-ID list: uvarint count, then each
// id as a zigzag delta from the previous one (the first from 0). Sorted or
// near-sorted lists — the common case for pseudo-ID batches — encode in one
// or two bytes per id instead of full-width integers.
func AppendIDs(dst []byte, ids []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	prev := 0
	for _, id := range ids {
		dst = binary.AppendUvarint(dst, Zigzag(int64(id-prev)))
		prev = id
	}
	return dst
}

// ConsumeIDs reads a delta-coded ID list from the front of data, returning
// the ids and the number of bytes consumed.
func ConsumeIDs(data []byte) ([]int, int, error) {
	count, n, err := ConsumeUvarint(data)
	if err != nil {
		return nil, 0, err
	}
	// Each delta takes at least one byte, so a count beyond the remaining
	// bytes is corruption — reject before allocating.
	if count > uint64(len(data)-n) {
		return nil, 0, fmt.Errorf("%w: id count %d exceeds %d remaining bytes", ErrCorrupt, count, len(data)-n)
	}
	if count == 0 {
		return nil, n, nil
	}
	ids := make([]int, count)
	prev := 0
	for i := range ids {
		d, dn, err := ConsumeUvarint(data[n:])
		if err != nil {
			return nil, 0, err
		}
		n += dn
		prev += int(Unzigzag(d))
		ids[i] = prev
	}
	return ids, n, nil
}

// AppendBlobs appends a length-prefixed blob list (ciphertexts, key
// material): uvarint count, then uvarint length | raw bytes per entry.
func AppendBlobs(dst []byte, blobs [][]byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(blobs)))
	for _, b := range blobs {
		dst = binary.AppendUvarint(dst, uint64(len(b)))
		dst = append(dst, b...)
	}
	return dst
}

// ConsumeBlobs reads a blob list from the front of data, returning the blobs
// (aliasing data) and the number of bytes consumed.
func ConsumeBlobs(data []byte) ([][]byte, int, error) {
	count, n, err := ConsumeUvarint(data)
	if err != nil {
		return nil, 0, err
	}
	if count > uint64(len(data)-n) {
		return nil, 0, fmt.Errorf("%w: blob count %d exceeds %d remaining bytes", ErrCorrupt, count, len(data)-n)
	}
	if count == 0 {
		return nil, n, nil
	}
	blobs := make([][]byte, count)
	for i := range blobs {
		size, sn, err := ConsumeUvarint(data[n:])
		if err != nil {
			return nil, 0, err
		}
		n += sn
		if size > uint64(len(data)-n) {
			return nil, 0, fmt.Errorf("%w: blob length %d exceeds %d remaining bytes", ErrCorrupt, size, len(data)-n)
		}
		blobs[i] = data[n : n+int(size) : n+int(size)]
		n += int(size)
	}
	return blobs, n, nil
}

package wire

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
)

func TestZigzagRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 2, -2, 63, -64, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64} {
		if got := Unzigzag(Zigzag(v)); got != v {
			t.Errorf("Unzigzag(Zigzag(%d)) = %d", v, got)
		}
	}
	// Small absolute values must stay small on the wire.
	for v, want := range map[int64]uint64{0: 0, -1: 1, 1: 2, -2: 3, 2: 4} {
		if got := Zigzag(v); got != want {
			t.Errorf("Zigzag(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestUvarintRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 16383, 16384, math.MaxUint64} {
		buf := AppendUvarint(nil, v)
		got, n, err := ConsumeUvarint(buf)
		if err != nil || got != v || n != len(buf) {
			t.Errorf("ConsumeUvarint(AppendUvarint(%d)) = %d, %d, %v", v, got, n, err)
		}
	}
	if _, _, err := ConsumeUvarint(nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("empty uvarint: got %v, want ErrTruncated", err)
	}
	if _, _, err := ConsumeUvarint([]byte{0x80}); !errors.Is(err, ErrTruncated) {
		t.Errorf("cut uvarint: got %v, want ErrTruncated", err)
	}
	over := bytes.Repeat([]byte{0xff}, 11)
	if _, _, err := ConsumeUvarint(over); !errors.Is(err, ErrOverflow) {
		t.Errorf("wide uvarint: got %v, want ErrOverflow", err)
	}
}

func TestIDsRoundTrip(t *testing.T) {
	cases := [][]int{
		nil,
		{0},
		{42},
		{1, 2, 3, 4, 5},
		{100, 90, 105, 3, -7},
		{-1, -2, -3},
	}
	for _, ids := range cases {
		buf := AppendIDs(nil, ids)
		got, n, err := ConsumeIDs(buf)
		if err != nil || n != len(buf) {
			t.Fatalf("ConsumeIDs(%v): n=%d err=%v", ids, n, err)
		}
		if len(ids) == 0 {
			if len(got) != 0 {
				t.Fatalf("ConsumeIDs(empty) = %v", got)
			}
			continue
		}
		if !reflect.DeepEqual(got, ids) {
			t.Fatalf("ConsumeIDs = %v, want %v", got, ids)
		}
	}
}

func TestIDsSortedListEncodesOneByteDeltas(t *testing.T) {
	ids := make([]int, 100)
	for i := range ids {
		ids[i] = 1000 + i // sorted, unit deltas
	}
	buf := AppendIDs(nil, ids)
	// count (1B) + first delta 1000 (2B) + 99 unit deltas (1B each).
	if want := 1 + 2 + 99; len(buf) != want {
		t.Fatalf("sorted id list took %d bytes, want %d", len(buf), want)
	}
}

func TestIDsCorruptCountRejected(t *testing.T) {
	// Count claims 1000 ids but only a few bytes follow.
	buf := AppendUvarint(nil, 1000)
	buf = append(buf, 1, 2, 3)
	if _, _, err := ConsumeIDs(buf); !errors.Is(err, ErrCorrupt) {
		t.Errorf("oversized id count: got %v, want ErrCorrupt", err)
	}
}

func TestBlobsRoundTrip(t *testing.T) {
	cases := [][][]byte{
		nil,
		{[]byte("a")},
		{[]byte(""), []byte("xy"), []byte("ciphertext")},
	}
	for _, blobs := range cases {
		buf := AppendBlobs(nil, blobs)
		got, n, err := ConsumeBlobs(buf)
		if err != nil || n != len(buf) {
			t.Fatalf("ConsumeBlobs: n=%d err=%v", n, err)
		}
		if len(blobs) == 0 {
			if len(got) != 0 {
				t.Fatalf("ConsumeBlobs(empty) = %v", got)
			}
			continue
		}
		if len(got) != len(blobs) {
			t.Fatalf("ConsumeBlobs len = %d, want %d", len(got), len(blobs))
		}
		for i := range blobs {
			if !bytes.Equal(got[i], blobs[i]) {
				t.Fatalf("blob %d = %q, want %q", i, got[i], blobs[i])
			}
		}
	}
}

func TestBlobsCorruptLengthRejected(t *testing.T) {
	buf := AppendUvarint(nil, 1)  // one blob
	buf = AppendUvarint(buf, 100) // claiming 100 bytes
	buf = append(buf, 0xde, 0xad) // with 2 present
	if _, _, err := ConsumeBlobs(buf); !errors.Is(err, ErrCorrupt) {
		t.Errorf("oversized blob length: got %v, want ErrCorrupt", err)
	}
}

// allFields exercises every field kind the encoder supports.
type allFields struct {
	U   uint64
	I   int64
	F   float64
	B   []byte
	S   string
	IDs []int
	BB  [][]byte
	Sub *allFields
}

func (a *allFields) MarshalWire(e *Encoder) {
	e.Uint(1, a.U)
	e.Int(2, a.I)
	e.Float(3, a.F)
	e.Bytes(4, a.B)
	e.String(5, a.S)
	e.IDs(6, a.IDs)
	e.Blobs(7, a.BB)
	if a.Sub != nil {
		e.Msg(8, a.Sub)
	}
}

func (a *allFields) UnmarshalWire(d *Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			a.U = d.Uint()
		case 2:
			a.I = d.Int()
		case 3:
			a.F = d.Float()
		case 4:
			a.B = d.Bytes()
		case 5:
			a.S = d.String()
		case 6:
			a.IDs = d.IDs()
		case 7:
			a.BB = d.Blobs()
		case 8:
			a.Sub = &allFields{}
			d.Msg(a.Sub)
		}
	}
	return d.Err()
}

func TestEncoderDecoderAllFields(t *testing.T) {
	in := &allFields{
		U:   77,
		I:   -12345,
		F:   3.14159,
		B:   []byte{0, 1, 2, 255},
		S:   "paillier",
		IDs: []int{9, 4, 11, 11, 2},
		BB:  [][]byte{[]byte("aa"), nil, []byte("c")},
		Sub: &allFields{I: 8, F: -0.5},
	}
	var e Encoder
	in.MarshalWire(&e)
	var out allFields
	if err := out.UnmarshalWire(NewDecoder(e.buf)); err != nil {
		t.Fatalf("UnmarshalWire: %v", err)
	}
	// Blob round trip normalises nil entries to empty; compare per field.
	if out.U != in.U || out.I != in.I || out.F != in.F || out.S != in.S {
		t.Fatalf("scalars: got %+v", out)
	}
	if !bytes.Equal(out.B, in.B) || !reflect.DeepEqual(out.IDs, in.IDs) {
		t.Fatalf("slices: got %+v", out)
	}
	if len(out.BB) != 3 || !bytes.Equal(out.BB[0], []byte("aa")) || len(out.BB[1]) != 0 || !bytes.Equal(out.BB[2], []byte("c")) {
		t.Fatalf("blobs: got %v", out.BB)
	}
	if out.Sub == nil || out.Sub.I != 8 || out.Sub.F != -0.5 {
		t.Fatalf("nested: got %+v", out.Sub)
	}
	// Payload tally: float 8 + bytes 4 + blobs 3 + nested float 8.
	if want := int64(8 + 4 + 3 + 8); e.Payload() != want {
		t.Fatalf("payload = %d, want %d", e.Payload(), want)
	}
}

func TestDecoderSkipsUnknownTags(t *testing.T) {
	// A future peer adds fields this build doesn't know: tags 9 (varint),
	// 10 (fixed64) and 11 (bytes) must be skipped without error.
	var e Encoder
	(&allFields{U: 5}).MarshalWire(&e)
	e.Uint(9, 123)
	e.Float(10, 2.5)
	e.Bytes(11, []byte("future"))
	e.Int(2, -3) // known field after unknown ones still decodes
	var out allFields
	if err := out.UnmarshalWire(NewDecoder(e.buf)); err != nil {
		t.Fatalf("UnmarshalWire with unknown tags: %v", err)
	}
	if out.U != 5 || out.I != -3 {
		t.Fatalf("got %+v", out)
	}
}

func TestDecoderWireTypeMismatch(t *testing.T) {
	var e Encoder
	e.Uint(3, 9) // tag 3 is a float field in allFields, encoded as varint here
	var out allFields
	if err := out.UnmarshalWire(NewDecoder(e.buf)); !errors.Is(err, ErrWireType) {
		t.Fatalf("wire type mismatch: got %v, want ErrWireType", err)
	}
}

func TestDetect(t *testing.T) {
	raw, err := Binary().Marshal(&allFields{U: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c, err := Detect(raw); err != nil || c.Name() != "binary" {
		t.Errorf("Detect(binary) = %v, %v; want binary", c, err)
	}
	// Anything without the envelope magic — an empty body, or a frame from
	// a build that spoke encoding/gob — is corrupt, never decoded.
	for _, data := range [][]byte{nil, {0x0c, 0xff, 0x81, 0x03}, {0x00, 0x00}} {
		if _, err := Detect(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("Detect(%x) = %v, want ErrCorrupt", data, err)
		}
	}
}

func TestDetectMaxRejectsFutureVersion(t *testing.T) {
	future := AppendUvarint([]byte{envelopeMagic}, 7) // version-7 envelope
	var vErr *UnsupportedVersionError
	if _, err := DetectMax(future, MaxVersion); !errors.As(err, &vErr) || vErr.Version != 7 {
		t.Fatalf("DetectMax(v7) = %v, want UnsupportedVersionError{7}", err)
	}
	// Decoding goes through the same check.
	if err := Binary().Unmarshal(future, &allFields{}); !errors.As(err, &vErr) || vErr.Version != 7 {
		t.Fatalf("Unmarshal(v7) = %v, want UnsupportedVersionError{7}", err)
	}
	// Truncated envelope is a decode error.
	if _, err := DetectMax([]byte{envelopeMagic}, MaxVersion); !errors.Is(err, ErrTruncated) {
		t.Fatalf("DetectMax(bare magic) = %v, want ErrTruncated", err)
	}
}

func TestCodecLookup(t *testing.T) {
	for _, name := range []string{"", "binary"} {
		c, err := ByName(name)
		if err != nil || c != Binary() || c.Version() != MaxVersion {
			t.Errorf("ByName(%q) = %v, %v", name, c, err)
		}
	}
	for _, name := range []string{"gob", "protobuf"} {
		if _, err := ByName(name); err == nil {
			t.Errorf("ByName(%q) succeeded", name)
		}
	}
}

func TestBinaryNilPayloadRoundTrip(t *testing.T) {
	raw, err := Binary().Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, []byte{0x00, 0x01}) {
		t.Fatalf("empty binary payload = %x, want 0001", raw)
	}
	c, err := Detect(raw)
	if err != nil || c.Name() != "binary" {
		t.Fatalf("Detect(empty binary) = %v, %v", c, err)
	}
	if err := Binary().Unmarshal(raw, nil); err != nil {
		t.Fatalf("Unmarshal(empty, nil): %v", err)
	}
}

func TestMarshalMeasured(t *testing.T) {
	msg := &allFields{I: 4, B: []byte("key material"), BB: [][]byte{make([]byte, 100)}, F: 1.5}
	wantPayload := int64(12 + 100 + 8)
	raw, payload, err := MarshalMeasured(Binary(), msg)
	if err != nil {
		t.Fatal(err)
	}
	if payload != wantPayload {
		t.Errorf("payload = %d, want %d", payload, wantPayload)
	}
	if int64(len(raw)) < payload {
		t.Errorf("raw %d shorter than payload %d", len(raw), payload)
	}
	// nil message: a bare envelope with no payload.
	raw, payload, err = MarshalMeasured(Binary(), nil)
	if err != nil || payload != 0 || len(raw) != 2 {
		t.Fatalf("nil: %v payload=%d raw=%x", err, payload, raw)
	}
}

package wire

import (
	"bytes"
	"testing"
)

// FuzzWire is the make-check smoke target: arbitrary bytes must never panic
// the field decoder, and whatever decodes must re-encode canonically.
func FuzzWire(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01})
	f.Add([]byte{0x00, 0x01, 0x08, 0x01}) // envelope v1, field 1 = 1
	var seed Encoder
	(&allFields{U: 3, I: -9, F: 2.5, B: []byte("b"), S: "s", IDs: []int{5, 1}, BB: [][]byte{[]byte("x")}}).MarshalWire(&seed)
	f.Add(seed.buf)
	f.Fuzz(func(t *testing.T, data []byte) {
		var m allFields
		if err := m.UnmarshalWire(NewDecoder(data)); err != nil {
			return // corrupt input rejected is fine; panics are not
		}
		// Canonical property: decode → encode → decode is a fixed point.
		var e Encoder
		m.MarshalWire(&e)
		var m2 allFields
		if err := m2.UnmarshalWire(NewDecoder(e.buf)); err != nil {
			t.Fatalf("re-decode of re-encoded message failed: %v", err)
		}
		var e2 Encoder
		m2.MarshalWire(&e2)
		if !bytes.Equal(e.buf, e2.buf) {
			t.Fatalf("re-encode not canonical: %x vs %x", e.buf, e2.buf)
		}
	})
}

// FuzzVarint checks ConsumeUvarint total safety and round-trip identity.
func FuzzVarint(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(300))
	f.Add(^uint64(0))
	f.Fuzz(func(t *testing.T, v uint64) {
		buf := AppendUvarint(nil, v)
		got, n, err := ConsumeUvarint(buf)
		if err != nil || got != v || n != len(buf) {
			t.Fatalf("round trip %d: got %d n=%d err=%v", v, got, n, err)
		}
	})
}

// FuzzZigzag checks the signed mapping is a bijection.
func FuzzZigzag(f *testing.F) {
	f.Add(int64(0))
	f.Add(int64(-1))
	f.Add(int64(1) << 62)
	f.Fuzz(func(t *testing.T, v int64) {
		if got := Unzigzag(Zigzag(v)); got != v {
			t.Fatalf("Unzigzag(Zigzag(%d)) = %d", v, got)
		}
	})
}

// FuzzDeltaIDs feeds arbitrary bytes to the ID-list reader (no panics, no
// over-allocation) and checks accepted lists round-trip.
func FuzzDeltaIDs(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendIDs(nil, []int{1, 2, 3}))
	f.Add(AppendIDs(nil, []int{1000, -4, 7}))
	f.Fuzz(func(t *testing.T, data []byte) {
		ids, n, err := ConsumeIDs(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		buf := AppendIDs(nil, ids)
		back, _, err := ConsumeIDs(buf)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if len(back) != len(ids) {
			t.Fatalf("round trip length %d != %d", len(back), len(ids))
		}
		for i := range ids {
			if back[i] != ids[i] {
				t.Fatalf("id %d: %d != %d", i, back[i], ids[i])
			}
		}
	})
}

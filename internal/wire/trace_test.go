package wire

import (
	"bytes"
	"testing"
)

func TestTraceContextRoundTrip(t *testing.T) {
	base, err := Binary().Marshal(&allFields{U: 7})
	if err != nil {
		t.Fatal(err)
	}
	tc := TraceContext{Span: 0x1122334455667788, Query: "q-deadbeef"}
	for i := range tc.Trace {
		tc.Trace[i] = byte(i + 1)
	}
	raw := AppendTraceContext(append([]byte(nil), base...), tc)
	if bytes.Equal(raw, base) {
		t.Fatal("trace field was not appended")
	}

	// A v1 peer that predates the field must decode the message unchanged:
	// the reserved tag is skipped like any unknown field.
	var m allFields
	if err := Binary().Unmarshal(raw, &m); err != nil {
		t.Fatalf("decoding with trace field: %v", err)
	}
	if m.U != 7 {
		t.Fatalf("U = %d, want 7", m.U)
	}

	got, ok := ExtractTraceContext(raw)
	if !ok {
		t.Fatal("trace context not extracted")
	}
	if got != tc {
		t.Fatalf("extracted %+v, want %+v", got, tc)
	}

	// Empty query is valid: only trace/span propagate.
	tc.Query = ""
	raw = AppendTraceContext(append([]byte(nil), base...), tc)
	if got, ok := ExtractTraceContext(raw); !ok || got != tc {
		t.Fatalf("queryless context: ok=%v got=%+v", ok, got)
	}
}

func TestTraceContextNonEnvelopePayloadsUntouched(t *testing.T) {
	tc := TraceContext{Span: 1}
	tc.Trace[0] = 1

	// Payloads without the envelope magic (such as an encoding/gob stream)
	// pass through unchanged and extract nothing.
	foreign := []byte{0x0c, 0xff, 0x81, 0x03, 0x01, 0x01}
	if out := AppendTraceContext(append([]byte(nil), foreign...), tc); !bytes.Equal(out, foreign) {
		t.Fatal("non-envelope payload was modified")
	}
	if _, ok := ExtractTraceContext(foreign); ok {
		t.Fatal("extracted trace context from a non-envelope payload")
	}

	// A zero context is never appended.
	base, err := Binary().Marshal(&allFields{U: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out := AppendTraceContext(append([]byte(nil), base...), TraceContext{}); !bytes.Equal(out, base) {
		t.Fatal("zero context was appended")
	}
	if _, ok := ExtractTraceContext(base); ok {
		t.Fatal("extracted trace context from a payload without the field")
	}
}

func TestTraceContextMalformedFieldIgnored(t *testing.T) {
	base, err := Binary().Marshal(&allFields{U: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A trace field shorter than the fixed trace+span prefix must be
	// rejected quietly, not panic or misparse.
	raw := AppendUvarint(append([]byte(nil), base...), uint64(TraceTag)<<3|uint64(wtBytes))
	raw = AppendUvarint(raw, 5)
	raw = append(raw, 1, 2, 3, 4, 5)
	if _, ok := ExtractTraceContext(raw); ok {
		t.Fatal("extracted a truncated trace field")
	}
	// Truncated payloads of any shape report ok=false.
	for i := 0; i < len(raw); i++ {
		_, _ = ExtractTraceContext(raw[:i])
	}
}

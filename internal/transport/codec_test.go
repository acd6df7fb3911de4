package transport

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"vfps/internal/wire"
)

// echoMsg is a minimal wire.Message for exercising CodecCaller.
type echoMsg struct {
	N  int64
	BB [][]byte
}

func (m *echoMsg) MarshalWire(e *wire.Encoder) {
	e.Int(1, m.N)
	e.Blobs(2, m.BB)
}

func (m *echoMsg) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			m.N = d.Int()
		case 2:
			m.BB = d.Blobs()
		}
	}
	return d.Err()
}

// codecNode registers a handler that echoes echoMsg with N incremented,
// checking the request envelope first — the same contract the vfl roles
// implement.
func codecNode(t *testing.T, m *Memory, name string) {
	t.Helper()
	m.Register(name, func(ctx context.Context, method string, req []byte) ([]byte, error) {
		if method != "echo" {
			return nil, fmt.Errorf("%w: %s", ErrUnknownMethod, method)
		}
		codec, err := wire.Detect(req)
		if err != nil {
			return nil, err
		}
		var msg echoMsg
		if err := codec.Unmarshal(req, &msg); err != nil {
			return nil, err
		}
		msg.N++
		return codec.Marshal(&msg)
	})
}

func TestCodecCallerInvoke(t *testing.T) {
	var m Memory
	codecNode(t, &m, "peer")
	ctx := context.Background()
	// A nil codec is the binary codec.
	for _, cc := range []*CodecCaller{NewCodecCaller(&m, wire.Binary()), NewCodecCaller(&m, nil)} {
		var resp echoMsg
		st, err := cc.Invoke(ctx, "peer", "echo", &echoMsg{N: 41, BB: [][]byte{{1, 2, 3}}}, &resp)
		if err != nil {
			t.Fatal(err)
		}
		if resp.N != 42 {
			t.Errorf("echo returned %d", resp.N)
		}
		if st.Codec != "binary" {
			t.Errorf("request went out as %s, want binary", st.Codec)
		}
		if st.Payload != 3 || st.Framing <= 0 {
			t.Errorf("stats %+v, want payload 3 and positive framing", st)
		}
	}
}

func TestCodecCallerTransientFaultNotCached(t *testing.T) {
	var m Memory
	codecNode(t, &m, "peer")
	m.InjectFailure("peer")
	cc := NewCodecCaller(&m, wire.Binary())
	ctx := context.Background()
	if _, err := cc.Invoke(ctx, "peer", "echo", &echoMsg{N: 1}, nil); !errors.Is(err, ErrInjectedFailure) {
		t.Fatalf("faulty peer: got %v", err)
	}
	// The caller keeps no per-peer state, so once the fault clears the next
	// call simply succeeds.
	m.InjectFailure("")
	var resp echoMsg
	if _, err := cc.Invoke(ctx, "peer", "echo", &echoMsg{N: 1}, &resp); err != nil || resp.N != 2 {
		t.Fatalf("recovered call: %v, N=%d", err, resp.N)
	}
}

func TestCodecCallerRejectsFutureResponseVersion(t *testing.T) {
	var m Memory
	m.Register("peer", func(ctx context.Context, method string, req []byte) ([]byte, error) {
		// A misbehaving peer answering with a version-9 envelope.
		return wire.AppendUvarint([]byte{0x00}, 9), nil
	})
	cc := NewCodecCaller(&m, wire.Binary())
	var resp echoMsg
	var vErr *wire.UnsupportedVersionError
	_, err := cc.Invoke(context.Background(), "peer", "echo", &echoMsg{N: 1}, &resp)
	if !errors.As(err, &vErr) || vErr.Version != 9 {
		t.Fatalf("future response version: got %v, want UnsupportedVersionError{9}", err)
	}
}

package transport

import (
	"context"
	"fmt"
	"testing"

	"vfps/internal/obs"
	"vfps/internal/wire"
)

// tcpEchoHandler serves echo, reporting the query ID its context carried — the server-side contract of
// trace propagation.
func tcpEchoHandler(seenQID *string) Handler {
	return func(ctx context.Context, method string, req []byte) ([]byte, error) {
		if method != "echo" {
			return nil, fmt.Errorf("%w: %s", ErrUnknownMethod, method)
		}
		*seenQID = obs.QueryIDFromContext(ctx)
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
	}
}

// TestTCPTracePropagation drives one binary-codec call across a real TCP
// boundary and asserts the two processes' span rings stitch into one trace:
// the server's rpc.serve span must be parented under the client's span, and
// the query ID must arrive in the handler context.
func TestTCPTracePropagation(t *testing.T) {
	var seenQID string
	srv, err := ListenTCP("127.0.0.1:0", tcpEchoHandler(&seenQID))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	serverObs := obs.NewObserver(64)
	serverObs.Trace.SetNode("server")
	srv.SetObserver(serverObs)

	cli := NewTCPClient(map[string]string{"peer": srv.Addr()})
	defer cli.Close()
	clientObs := obs.NewObserver(64)
	clientObs.Trace.SetNode("client")
	cli.SetObserver(clientObs)
	cc := NewCodecCaller(cli, wire.Binary())

	ctx := obs.ContextWithQueryID(context.Background(), "q-cafe0001")
	ctx, root := clientObs.Trace.Start(ctx, "vfl.query")
	var resp echoMsg
	if _, err := cc.Invoke(ctx, "peer", "echo", &echoMsg{N: 41}, &resp); err != nil {
		t.Fatal(err)
	}
	root.End()
	if resp.N != 42 {
		t.Fatalf("echo = %d, want 42", resp.N)
	}
	if seenQID != "q-cafe0001" {
		t.Fatalf("handler saw query ID %q, want q-cafe0001", seenQID)
	}

	rootData := clientObs.Trace.Report().Spans
	var query, rpc obs.SpanData
	for _, s := range rootData {
		switch s.Name {
		case "vfl.query":
			query = s
		case "rpc":
			rpc = s
		}
	}
	if query.ID == 0 {
		t.Fatal("client query span missing")
	}
	var serve obs.SpanData
	for _, s := range serverObs.Trace.Report().Spans {
		if s.Name == "rpc.serve" && s.Labels["method"] == "echo" {
			serve = s
		}
	}
	if serve.ID == 0 {
		t.Fatal("server rpc.serve span missing")
	}
	if serve.Trace != query.Trace {
		t.Fatalf("server span trace %s, want client trace %s", serve.Trace, query.Trace)
	}
	// Injection happens at the Invoke layer, so the server span parents
	// under the caller's protocol span (the transport's own rpc span is a
	// sibling leaf measuring the exchange); the forest must stitch both
	// processes with no orphans.
	if serve.Parent != query.ID {
		t.Fatalf("serve parent = %d, want client query span %d", serve.Parent, query.ID)
	}
	if rpc.ID == 0 || rpc.Parent != query.ID {
		t.Fatalf("client rpc span = %+v, want child of query span %d", rpc, query.ID)
	}
	all := append(rootData, serverObs.Trace.Report().Spans...)
	for _, tree := range obs.AssembleForest(all) {
		if tree.Trace != query.Trace {
			continue
		}
		if tree.Orphans != 0 || len(tree.Nodes) != 2 {
			t.Fatalf("stitched tree = %+v", tree)
		}
		return
	}
	t.Fatal("query trace missing from forest")
}

// TestTCPTraceOmittedForLegacy asserts that a call with no span in context
// carries no trace field, so its byte stream matches a pre-trace build's.
func TestTCPTraceOmittedForLegacy(t *testing.T) {
	var seenQID string
	srv, err := ListenTCP("127.0.0.1:0", tcpEchoHandler(&seenQID))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewTCPClient(map[string]string{"peer": srv.Addr()})
	defer cli.Close()

	// No span or query ID in context: the request byte stream is identical
	// to a pre-trace build's, so legacy golden vectors hold.
	var resp echoMsg
	bc := NewCodecCaller(cli, wire.Binary())
	if _, err := bc.Invoke(context.Background(), "peer", "echo", &echoMsg{N: 5}, &resp); err != nil || resp.N != 6 {
		t.Fatalf("binary echo: %v, N=%d", err, resp.N)
	}
	if seenQID != "" {
		t.Fatalf("observer-less call leaked query ID %q", seenQID)
	}
}

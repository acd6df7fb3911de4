package vfl

import (
	"context"
	"encoding/binary"
	"math"
	"sync"
	"testing"

	"vfps/internal/transport"
)

// recordingCaller wraps a transport and records every request and response
// payload, so tests can scan the full protocol transcript for leaks.
type recordingCaller struct {
	inner transport.Caller
	mu    sync.Mutex
	blobs [][]byte
}

func (r *recordingCaller) Call(ctx context.Context, peer, method string, req []byte) ([]byte, error) {
	resp, err := r.inner.Call(ctx, peer, method, req)
	r.mu.Lock()
	r.blobs = append(r.blobs, append([]byte{}, req...))
	if resp != nil {
		r.blobs = append(r.blobs, append([]byte{}, resp...))
	}
	r.mu.Unlock()
	return resp, err
}

// containsFloat64 reports whether any 8-byte window of any recorded blob
// decodes (big-endian or little-endian) to a float64 within tol of v.
func (r *recordingCaller) containsFloat64(v, tol float64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, b := range r.blobs {
		for i := 0; i+8 <= len(b); i++ {
			be := math.Float64frombits(binary.BigEndian.Uint64(b[i : i+8]))
			le := math.Float64frombits(binary.LittleEndian.Uint64(b[i : i+8]))
			if math.Abs(be-v) < tol || math.Abs(le-v) < tol {
				return true
			}
		}
	}
	return false
}

// buildRecordedCluster wires a cluster whose leader and aggregation server
// route through a recorder, capturing the entire selection transcript.
func buildRecordedCluster(t *testing.T, scheme string) (*Cluster, *recordingCaller) {
	t.Helper()
	_, pt := testPartition(t, "Rice", 60, 3)
	cl, err := NewLocalCluster(context.Background(), ClusterConfig{
		Partition:   pt,
		Scheme:      scheme,
		KeyBits:     256,
		ShuffleSeed: 7,
		Batch:       8,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingCaller{inner: cl.Transport}
	// Rebuild the server and leader over the recorder so every hop that
	// carries protected values is captured.
	pub, err := FetchPublicSchemeWire(context.Background(), transport.NewCodecCaller(rec, nil), KeyServerName)
	if err != nil {
		t.Fatal(err)
	}
	partyNames := make([]string, pt.P())
	for i := range partyNames {
		partyNames[i] = PartyName(i)
	}
	agg, err := NewAggServer(rec, partyNames, pub)
	if err != nil {
		t.Fatal(err)
	}
	cl.Transport.Register(AggServerName, agg.Handler())
	priv, err := FetchPrivateSchemeWire(context.Background(), transport.NewCodecCaller(rec, nil), KeyServerName)
	if err != nil {
		t.Fatal(err)
	}
	leader, err := NewLeader(rec, AggServerName, partyNames, priv, 8)
	if err != nil {
		t.Fatal(err)
	}
	cl.Leader = leader
	return cl, rec
}

// TestTranscriptDoesNotLeakPlaintextDistances runs a full selection under
// each protecting scheme and scans every byte that crossed the transport for
// IEEE-754 encodings of the true partial distances.
func TestTranscriptDoesNotLeakPlaintextDistances(t *testing.T) {
	for _, scheme := range []string{"paillier", "secagg"} {
		t.Run(scheme, func(t *testing.T) {
			cl, rec := buildRecordedCluster(t, scheme)
			ctx := context.Background()
			query := 5
			if _, err := cl.Leader.Similarities(ctx, []int{query}, 4, VariantFagin, 1); err != nil {
				t.Fatal(err)
			}
			// The secrets: party 0's true partial distances for this query.
			qc, err := cl.Parties[0].distances(context.Background(), query)
			if err != nil {
				t.Fatal(err)
			}
			leaks := 0
			checked := 0
			for i, d := range qc.dist {
				if i == query || d == 0 {
					continue
				}
				checked++
				if rec.containsFloat64(d, 1e-12) {
					leaks++
				}
				if checked >= 30 {
					break
				}
			}
			if leaks > 0 {
				t.Fatalf("%d of %d partial distances appeared in plaintext on the wire", leaks, checked)
			}
		})
	}
}

// Sanity-check the detector itself: under the plain scheme the distances DO
// cross the wire verbatim, so the scan must find them.
func TestTranscriptDetectorFindsPlainLeaks(t *testing.T) {
	cl, rec := buildRecordedCluster(t, "plain")
	ctx := context.Background()
	query := 5
	if _, err := cl.Leader.Similarities(ctx, []int{query}, 4, VariantBase, 1); err != nil {
		t.Fatal(err)
	}
	qc, err := cl.Parties[0].distances(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i, d := range qc.dist {
		if i == query || d == 0 {
			continue
		}
		if rec.containsFloat64(d, 1e-12) {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("detector failed to find plaintext distances in the plain-scheme transcript")
	}
}

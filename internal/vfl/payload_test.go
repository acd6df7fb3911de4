package vfl

import (
	"context"
	"errors"
	"strings"
	"testing"

	"vfps/internal/dataset"
	"vfps/internal/fixed"
)

func payloadTestCluster(t *testing.T, pt *dataset.Partition, adaptive bool, chunkBytes int, delta bool) *Cluster {
	t.Helper()
	cl, err := NewLocalCluster(context.Background(), ClusterConfig{
		Partition:    pt,
		Scheme:       "paillier",
		KeyBits:      256,
		ShuffleSeed:  7,
		Batch:        8,
		Wire:         "binary",
		Pack:         true,
		PackAdaptive: adaptive,
		ChunkBytes:   chunkBytes,
		DeltaCache:   delta,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// TestAdaptivePackSelectionIdentity is the payload determinism contract: a
// consortium with every payload knob on — adaptive slot width, chunked
// streaming, cross-round delta cache — computes bit-identical similarities to
// static packing, across repeated rounds, while the second round actually
// hits the delta cache and moves fewer bytes.
func TestAdaptivePackSelectionIdentity(t *testing.T) {
	ctx := context.Background()
	_, pt := testPartition(t, "Bank", 48, 3)
	queries := []int{0, 11, 47}

	static := payloadTestCluster(t, pt, false, 0, false)
	full := payloadTestCluster(t, pt, true, 2048, true)

	for _, variant := range []Variant{VariantBase, VariantFagin} {
		sref, err := static.Leader.Similarities(ctx, queries, 3, variant, 1)
		if err != nil {
			t.Fatal(err)
		}
		var roundBytes [2]int64
		for round := 0; round < 2; round++ {
			if err := full.Leader.ResetAllCounts(ctx); err != nil {
				t.Fatal(err)
			}
			frep, err := full.Leader.Similarities(ctx, queries, 3, variant, 1)
			if err != nil {
				t.Fatalf("%s round %d: %v", variant, round+1, err)
			}
			for i := range sref.W {
				for j := range sref.W[i] {
					if sref.W[i][j] != frep.W[i][j] {
						t.Fatalf("%s round %d: W[%d][%d] = %v under payload knobs, %v static",
							variant, round+1, i, j, frep.W[i][j], sref.W[i][j])
					}
				}
			}
			total, err := full.Leader.TotalCounts(ctx)
			if err != nil {
				t.Fatal(err)
			}
			roundBytes[round] = total.BytesSent
			if round == 0 && total.CacheHits != 0 && variant == VariantBase {
				// First base round on a fresh cache: everything is a fresh send.
				t.Fatalf("%s round 1: %d cache hits on a cold cache", variant, total.CacheHits)
			}
			if round == 1 {
				if total.CacheHits == 0 {
					t.Fatalf("%s round 2: repeat queries recorded no delta-cache hits", variant)
				}
				if total.CacheMisses != 0 {
					t.Fatalf("%s round 2: %d unexpected delta-cache misses", variant, total.CacheMisses)
				}
			}
		}
		if roundBytes[1] >= roundBytes[0] {
			t.Fatalf("%s: steady-state round sent %d payload bytes, cold round %d — delta cache saved nothing",
				variant, roundBytes[1], roundBytes[0])
		}
	}
}

// TestMaliciousPackDepthRejected pins the leader's hard backstop against a
// peer advertising an impossible pack geometry: a non-positive aggregation
// depth or an oversized slot width must surface the typed fixed errors, and
// a pack factor inconsistent with the advertised geometry must be refused.
func TestMaliciousPackDepthRejected(t *testing.T) {
	ctx := context.Background()
	_, pt := testPartition(t, "Bank", 24, 3)
	cl := payloadTestCluster(t, pt, true, 0, false)

	col := &collected{
		pids:   []int{0, 1, 2},
		blobs:  [][]byte{{1}},
		factor: 3,
		bits:   40,
		adds:   0, // impossible: zero aggregation depth
	}
	if _, err := cl.Leader.decryptCollected(ctx, col); !errors.Is(err, fixed.ErrPackAdds) {
		t.Fatalf("zero advertised depth: err = %v, want fixed.ErrPackAdds", err)
	}

	col.adds = 3
	col.bits = 4096 // slot wider than any plaintext the key can hold
	if _, err := cl.Leader.decryptCollected(ctx, col); !errors.Is(err, fixed.ErrPackShape) {
		t.Fatalf("oversized slot width: err = %v, want fixed.ErrPackShape", err)
	}

	col.bits = 40
	col.factor = 1000 // geometry admits far fewer slots than advertised
	if _, err := cl.Leader.decryptCollected(ctx, col); err == nil ||
		!strings.Contains(err.Error(), "inconsistent packing configuration") {
		t.Fatalf("factor/geometry mismatch: err = %v, want inconsistent-packing rejection", err)
	}
}

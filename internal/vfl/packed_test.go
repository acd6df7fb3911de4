package vfl

import (
	"context"
	"fmt"
	"testing"

	"vfps/internal/dataset"
	"vfps/internal/he"
)

func packedCluster(t *testing.T, pt *dataset.Partition, pack bool) *Cluster {
	t.Helper()
	cl, err := NewLocalCluster(context.Background(), ClusterConfig{
		Partition:   pt,
		Scheme:      "paillier",
		KeyBits:     256,
		ShuffleSeed: 7,
		Batch:       8,
		Pack:        pack,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// TestPackedSelectionIdentity is the packing contract: slot-packed ciphertexts
// change only how many ciphertexts move, never what the leader decides. The
// packed cluster must produce the exact similarity matrix and neighbour sets
// of the scalar cluster while sending strictly fewer bytes.
func TestPackedSelectionIdentity(t *testing.T) {
	_, pt := testPartition(t, "Bank", 60, 3)
	ctx := context.Background()
	queries := []int{0, 11, 29, 58}

	scalar := packedCluster(t, pt, false)
	packed := packedCluster(t, pt, true)
	if pf := packed.pubScheme.(*he.Paillier).PackFactor(); pf < 2 {
		t.Fatalf("packed cluster pack factor = %d, want ≥ 2", pf)
	}

	for _, variant := range []Variant{VariantBase, VariantFagin, VariantThreshold} {
		t.Run(fmt.Sprint(variant), func(t *testing.T) {
			sq, err := scalar.Leader.RunQuery(ctx, queries[0], 3, variant)
			if err != nil {
				t.Fatal(err)
			}
			pq, err := packed.Leader.RunQuery(ctx, queries[0], 3, variant)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(sq.Neighbors) != fmt.Sprint(pq.Neighbors) {
				t.Fatalf("neighbours differ: %v vs %v", sq.Neighbors, pq.Neighbors)
			}
		})
	}

	for _, variant := range []Variant{VariantBase, VariantFagin} {
		srep, err := scalar.Leader.Similarities(ctx, queries, 3, variant, 1)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := packed.Leader.Similarities(ctx, queries, 3, variant, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range srep.W {
			for j := range srep.W[i] {
				if srep.W[i][j] != prep.W[i][j] {
					t.Fatalf("%s: W[%d][%d] differs: %v vs %v",
						variant, i, j, srep.W[i][j], prep.W[i][j])
				}
			}
		}
	}

	sc, err := scalar.Leader.TotalCounts(ctx)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := packed.Leader.TotalCounts(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pc.BytesSent >= sc.BytesSent {
		t.Fatalf("packed run sent %d bytes, scalar %d — packing should shrink traffic",
			pc.BytesSent, sc.BytesSent)
	}
	if pc.Encryptions >= sc.Encryptions {
		t.Fatalf("packed run performed %d encryptions, scalar %d — counters should reflect packed ciphertexts",
			pc.Encryptions, sc.Encryptions)
	}
}

// TestPackedRejectsUndersizedKey pins the failure mode: a modulus too small to
// hold one slot must fail cluster construction instead of silently degrading.
func TestPackedRejectsUndersizedKey(t *testing.T) {
	_, pt := testPartition(t, "Bank", 20, 2)
	_, err := NewLocalCluster(context.Background(), ClusterConfig{
		Partition:   pt,
		Scheme:      "paillier",
		KeyBits:     64,
		ShuffleSeed: 7,
		Pack:        true,
	})
	if err == nil {
		t.Fatal("64-bit key accepted packing")
	}
}

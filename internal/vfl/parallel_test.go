package vfl

import (
	"context"
	"fmt"
	"testing"

	"vfps/internal/costmodel"
	"vfps/internal/dataset"
)

// dropBytes clears the wire-byte fields of a snapshot. Byte counters charge
// bytes as actually encoded, and Paillier ciphertexts are randomized big
// integers whose serialized length varies by a byte or two between runs —
// independent of parallelism — so determinism checks compare the operation
// counts only for randomized schemes.
func dropBytes(r costmodel.Raw) costmodel.Raw {
	r.BytesSent, r.FramingBytes = 0, 0
	return r
}

func parallelCluster(t *testing.T, pt *dataset.Partition, scheme string, parallelism int) *Cluster {
	t.Helper()
	cl, err := NewLocalCluster(context.Background(), ClusterConfig{
		Partition:   pt,
		Scheme:      scheme,
		KeyBits:     256,
		ShuffleSeed: 7,
		Batch:       8,
		Parallelism: parallelism,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// TestParallelismDeterminism is the pipeline's core contract: a cluster
// running with worker pools and concurrent party fan-out produces the exact
// similarity matrix, the exact neighbour sets, and the exact operation counts
// of a fully serial run.
func TestParallelismDeterminism(t *testing.T) {
	_, pt := testPartition(t, "Bank", 60, 3)
	ctx := context.Background()
	queries := []int{0, 11, 29, 58}
	for _, scheme := range []string{"plain", "paillier", "secagg"} {
		for _, variant := range []Variant{VariantBase, VariantFagin} {
			t.Run(fmt.Sprintf("%s/%s", scheme, variant), func(t *testing.T) {
				serial := parallelCluster(t, pt, scheme, 1)
				parallel := parallelCluster(t, pt, scheme, 4)

				sq, err := serial.Leader.RunQuery(ctx, queries[0], 3, variant)
				if err != nil {
					t.Fatal(err)
				}
				pq, err := parallel.Leader.RunQuery(ctx, queries[0], 3, variant)
				if err != nil {
					t.Fatal(err)
				}
				if len(sq.Neighbors) != len(pq.Neighbors) {
					t.Fatalf("neighbour counts differ: %d vs %d", len(sq.Neighbors), len(pq.Neighbors))
				}
				for i := range sq.Neighbors {
					if sq.Neighbors[i] != pq.Neighbors[i] {
						t.Fatalf("neighbour %d differs: %v vs %v", i, sq.Neighbors, pq.Neighbors)
					}
				}

				srep, err := serial.Leader.Similarities(ctx, queries, 3, variant, 1)
				if err != nil {
					t.Fatal(err)
				}
				prep, err := parallel.Leader.Similarities(ctx, queries, 3, variant, 1)
				if err != nil {
					t.Fatal(err)
				}
				for i := range srep.W {
					for j := range srep.W[i] {
						if srep.W[i][j] != prep.W[i][j] {
							t.Fatalf("W[%d][%d] differs: %v vs %v",
								i, j, srep.W[i][j], prep.W[i][j])
						}
					}
				}
				if srep.AvgCandidates != prep.AvgCandidates {
					t.Fatalf("AvgCandidates differ: %v vs %v", srep.AvgCandidates, prep.AvgCandidates)
				}

				sc, err := serial.Leader.TotalCounts(ctx)
				if err != nil {
					t.Fatal(err)
				}
				pc, err := parallel.Leader.TotalCounts(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if scheme == "paillier" {
					sc, pc = dropBytes(sc), dropBytes(pc)
				}
				if sc != pc {
					t.Fatalf("operation counts differ under concurrency:\nserial:   %+v\nparallel: %+v", sc, pc)
				}
			})
		}
	}
}

// TestParallelismThresholdVariant covers the leader-driven TA scan, whose
// per-round candidate aggregation also fans out.
func TestParallelismThresholdVariant(t *testing.T) {
	_, pt := testPartition(t, "Rice", 50, 3)
	ctx := context.Background()
	serial := parallelCluster(t, pt, "paillier", 1)
	parallel := parallelCluster(t, pt, "paillier", 4)
	for _, q := range []int{0, 17} {
		sq, err := serial.Leader.RunQuery(ctx, q, 3, VariantThreshold)
		if err != nil {
			t.Fatal(err)
		}
		pq, err := parallel.Leader.RunQuery(ctx, q, 3, VariantThreshold)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(sq.Neighbors) != fmt.Sprint(pq.Neighbors) {
			t.Fatalf("query %d: neighbours differ: %v vs %v", q, sq.Neighbors, pq.Neighbors)
		}
	}
	sc, err := serial.Leader.TotalCounts(ctx)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := parallel.Leader.TotalCounts(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sc, pc = dropBytes(sc), dropBytes(pc); sc != pc {
		t.Fatalf("threshold counts differ:\nserial:   %+v\nparallel: %+v", sc, pc)
	}
}

// TestParallelContextCancellation verifies the satellite bugfix: a cancelled
// context aborts the party fan-out and the encryption loops instead of
// completing the full protocol round.
func TestParallelContextCancellation(t *testing.T) {
	_, pt := testPartition(t, "Bank", 60, 3)
	for _, parallelism := range []int{1, 4} {
		cl := parallelCluster(t, pt, "paillier", parallelism)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := cl.Leader.RunQuery(ctx, 0, 3, VariantBase); err == nil {
			t.Fatalf("parallelism=%d: RunQuery on cancelled ctx succeeded", parallelism)
		}
		if _, err := cl.Leader.RunQuery(ctx, 0, 3, VariantThreshold); err == nil {
			t.Fatalf("parallelism=%d: threshold RunQuery on cancelled ctx succeeded", parallelism)
		}
	}
}

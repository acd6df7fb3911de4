package experiments

import (
	"context"
	"fmt"
	"testing"

	"vfps"
	"vfps/internal/core"
	"vfps/internal/vfl"
)

// TestMontSelectionIdentity is the acceptance gate for the Montgomery kernel:
// across {serial, parallel} × {scalar, packed} × {windowed pools on/off},
// selections with the kernel forced on are bit-identical to the same
// configuration with the kernel forced off (pure math/big).
func TestMontSelectionIdentity(t *testing.T) {
	ctx := context.Background()
	d, err := vfps.GenerateDataset("Bank", 60)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := vfps.VerticalSplit(d, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	queries := core.SampleQueries(60, 4, 1)
	run := func(mont, parallelism, window int, pack bool) []int {
		t.Helper()
		cl, err := vfl.NewLocalCluster(ctx, vfl.ClusterConfig{
			Partition:     pt,
			Scheme:        "paillier",
			KeyBits:       256,
			ShuffleSeed:   303,
			Parallelism:   parallelism,
			Pack:          pack,
			EncryptWindow: window,
			Mont:          mont,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		sel, err := core.Select(ctx, cl.Leader, 2, core.Config{
			K:       3,
			Queries: queries,
			Variant: vfl.VariantFagin,
			Seed:    1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sel.Selected
	}
	for _, parallelism := range []int{1, 0} {
		for _, pack := range []bool{false, true} {
			for _, window := range []int{0, -1} {
				name := fmt.Sprintf("par=%d pack=%v window=%d", parallelism, pack, window)
				on := run(1, parallelism, window, pack)
				off := run(-1, parallelism, window, pack)
				if len(on) == 0 || !equalInts(on, off) {
					t.Fatalf("%s: mont-on selected %v, mont-off selected %v", name, on, off)
				}
			}
		}
	}
}

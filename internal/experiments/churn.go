package experiments

import (
	"context"
	"fmt"
	"reflect"
	"runtime"

	"vfps"
	"vfps/internal/core"
	"vfps/internal/par"
	"vfps/internal/vfl"
)

// ChurnResult is the structured output of the membership-churn benchmark:
// what an online consortium pays (and must not get wrong) when participants
// join and leave between selections instead of the deployment being rebuilt.
type ChurnResult struct {
	GOMAXPROCS  int
	Parallelism int
	Rows        int
	Queries     int
	// BaseParties is the roster size before the join; FinalParties after.
	BaseParties  int
	FinalParties int
	KeyBits      int

	// ColdEncryptions is the encryption count of a selection on a consortium
	// cold-built at the final membership; JoinEncryptions is the count of the
	// same selection after an in-place join on a warm consortium, where the
	// delta cache spares every survivor re-encryption. HEReduction is the
	// headline gate: Cold/Join, required >= 2 for base rosters of 6+.
	ColdEncryptions int64
	JoinEncryptions int64
	HEReduction     float64
	// JoinMatch asserts the churn identity contract on the join: the warm
	// consortium's post-join selection equals the cold rebuild bit for bit
	// (picks, objective value and similarity matrix).
	JoinMatch bool
	// LeaveMatch asserts the same contract after a removal.
	LeaveMatch bool

	// RevisitHEOps counts encrypted operations of a selection whose
	// (roster, queries, variant, K) key recurred with the set-keyed
	// similarity cache enabled — required 0, the phase is skipped outright.
	RevisitHEOps int64
	RevisitMatch bool

	Table *Table
}

// churnPartition builds a partition holding the listed parties of pt.
func churnPartition(pt *vfps.Partition, parties []int) *vfps.Partition {
	out := &vfps.Partition{}
	for _, p := range parties {
		out.Parties = append(out.Parties, pt.Parties[p])
		out.FeatureIdx = append(out.FeatureIdx, pt.FeatureIdx[p])
		out.DuplicateOf = append(out.DuplicateOf, -1)
	}
	return out
}

// Churn benchmarks online membership changes against cold rebuilds: an
// in-place join must reuse every survivor's cached ciphertexts (paying
// encryption only for the joiner), leaves and roster revisits must stay
// bit-identical to cold selections.
func Churn(ctx context.Context, opt Options) (*ChurnResult, error) {
	return churnAt(ctx, opt, 512)
}

// churnAt is Churn with the Paillier key width injectable so unit tests can
// shrink it.
func churnAt(ctx context.Context, opt Options, e2eBits int) (*ChurnResult, error) {
	opt = opt.withDefaults()
	res := &ChurnResult{
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Parallelism: par.Degree(),
		KeyBits:     e2eBits,
	}
	// The survivor-reuse gate concerns non-trivial rosters: floor the
	// pre-join membership at six parties.
	res.BaseParties = opt.Parties
	if res.BaseParties < 6 {
		res.BaseParties = 6
	}
	res.FinalParties = res.BaseParties + 1
	res.Rows = opt.Rows
	if res.Rows > 120 {
		res.Rows = 120
	}
	res.Queries = opt.Queries
	if res.Queries > 6 {
		res.Queries = 6
	}

	d, err := vfps.GenerateDataset("Bank", res.Rows)
	if err != nil {
		return nil, err
	}
	full, err := vfps.VerticalSplit(d, res.FinalParties, opt.Seed+101)
	if err != nil {
		return nil, err
	}
	queries := core.SampleQueries(res.Rows, res.Queries, opt.Seed)
	k := opt.K
	if k > 5 {
		k = 5
	}
	count := 2
	mk := func(name string, parties []int) (*vfl.Cluster, error) {
		return vfl.NewLocalCluster(ctx, vfl.ClusterConfig{
			Partition:   churnPartition(full, parties),
			Scheme:      "paillier",
			KeyBits:     e2eBits,
			ShuffleSeed: opt.Seed + 303,
			DeltaCache:  true,
			Instance:    "churn/" + name,
		})
	}
	sel := func(cl *vfl.Cluster, variant vfl.Variant) (*core.Selection, error) {
		// VariantBase keeps the candidate set membership-invariant (every
		// instance, every query), so a survivor's ciphertext blocks are
		// byte-stable across the join and the delta cache can withhold all
		// of them.
		return core.Select(ctx, cl.Leader, count, core.Config{K: k, Queries: queries, Variant: variant})
	}
	identical := func(a, b *core.Selection) bool {
		return equalInts(a.Selected, b.Selected) && a.Value == b.Value && reflect.DeepEqual(a.W, b.W)
	}

	// Cold rebuild at the final membership: the baseline an online
	// deployment would pay for every membership change.
	roster := make([]int, res.FinalParties)
	for i := range roster {
		roster[i] = i
	}
	coldCl, err := mk("cold", roster)
	if err != nil {
		return nil, err
	}
	defer coldCl.Close()
	cold, err := sel(coldCl, vfl.VariantBase)
	if err != nil {
		return nil, fmt.Errorf("churn cold arm: %w", err)
	}
	res.ColdEncryptions = cold.Counts.Encryptions

	// Online consortium: warm at the base membership, then join in place.
	liveCl, err := mk("live", roster[:res.BaseParties])
	if err != nil {
		return nil, err
	}
	defer liveCl.Close()
	if _, err := sel(liveCl, vfl.VariantBase); err != nil {
		return nil, fmt.Errorf("churn warm-up: %w", err)
	}
	if _, err := liveCl.AddParticipant(full.Parties[res.BaseParties]); err != nil {
		return nil, fmt.Errorf("churn join: %w", err)
	}
	join, err := sel(liveCl, vfl.VariantBase)
	if err != nil {
		return nil, fmt.Errorf("churn join arm: %w", err)
	}
	res.JoinEncryptions = join.Counts.Encryptions
	res.HEReduction = speedup(float64(res.ColdEncryptions), float64(res.JoinEncryptions))
	res.JoinMatch = identical(join, cold)

	// Leave: drop a survivor in place and compare against a cold twin.
	if err := liveCl.RemoveParticipant(1); err != nil {
		return nil, fmt.Errorf("churn leave: %w", err)
	}
	leave, err := sel(liveCl, vfl.VariantBase)
	if err != nil {
		return nil, fmt.Errorf("churn leave arm: %w", err)
	}
	leaveRoster := append([]int{0}, roster[2:]...)
	coldLeaveCl, err := mk("cold-leave", leaveRoster)
	if err != nil {
		return nil, err
	}
	defer coldLeaveCl.Close()
	coldLeave, err := sel(coldLeaveCl, vfl.VariantBase)
	if err != nil {
		return nil, fmt.Errorf("churn cold-leave arm: %w", err)
	}
	res.LeaveMatch = identical(leave, coldLeave)

	// Roster revisit: with the set-keyed similarity cache, a recurring
	// (roster, queries, variant, K) key skips the encrypted phase outright.
	cache := core.NewSimCache(0)
	cached := core.Config{K: k, Queries: queries, Variant: vfl.VariantBase, Cache: cache}
	first, err := core.Select(ctx, liveCl.Leader, count, cached)
	if err != nil {
		return nil, fmt.Errorf("churn revisit store: %w", err)
	}
	revisit, err := core.Select(ctx, liveCl.Leader, count, cached)
	if err != nil {
		return nil, fmt.Errorf("churn revisit arm: %w", err)
	}
	res.RevisitHEOps = revisit.Counts.Encryptions + revisit.Counts.Decryptions + revisit.Counts.CipherAdds
	res.RevisitMatch = identical(revisit, first)

	res.Table = churnTable(res)
	res.Table.Fprint(opt.Out)
	return res, nil
}

func churnTable(r *ChurnResult) *Table {
	t := &Table{
		Title: fmt.Sprintf("Membership churn: in-place join/leave vs cold rebuild (n=%d q=%d p=%d->%d, %d-bit keys)",
			r.Rows, r.Queries, r.BaseParties, r.FinalParties, r.KeyBits),
		Header: []string{"arm", "encryptions", "identity", "note"},
	}
	t.Rows = append(t.Rows,
		[]string{"cold rebuild", fmt.Sprintf("%d", r.ColdEncryptions), "baseline", ""},
		[]string{"incremental join", fmt.Sprintf("%d", r.JoinEncryptions), fmt.Sprintf("%v", r.JoinMatch),
			fmt.Sprintf("%.2fx fewer encryptions", r.HEReduction)},
		[]string{"incremental leave", "", fmt.Sprintf("%v", r.LeaveMatch), "submatrix identity vs cold twin"},
		[]string{"roster revisit", fmt.Sprintf("%d", r.RevisitHEOps), fmt.Sprintf("%v", r.RevisitMatch),
			"set-keyed cache, 0 HE ops expected"},
	)
	return t
}

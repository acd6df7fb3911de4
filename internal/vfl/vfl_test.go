package vfl

import (
	"context"
	"errors"
	"math"
	"sort"
	"testing"

	"vfps/internal/dataset"
	"vfps/internal/mat"
	"vfps/internal/transport"
	"vfps/internal/wire"
)

func testPartition(t *testing.T, name string, rows, parties int) (*dataset.Dataset, *dataset.Partition) {
	t.Helper()
	spec, err := dataset.SpecByName(name)
	if err != nil {
		t.Fatal(err)
	}
	d, err := spec.Generate(rows)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := dataset.VerticalSplit(d, parties, 42)
	if err != nil {
		t.Fatal(err)
	}
	return d, pt
}

func newCluster(t *testing.T, pt *dataset.Partition, scheme string) *Cluster {
	t.Helper()
	cl, err := NewLocalCluster(context.Background(), ClusterConfig{
		Partition:   pt,
		Scheme:      scheme,
		KeyBits:     256, // small for test speed; correctness is key-size independent
		ShuffleSeed: 7,
		Batch:       8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// bruteNeighbors computes the query's k nearest neighbours in the joint
// feature space directly, as pseudo IDs under the cluster's shared shuffle.
func bruteNeighbors(d *dataset.Dataset, pt *dataset.Partition, cl *Cluster, query, k int) []int {
	joint := pt.Joint()
	n := joint.Rows
	dist := make([]float64, n)
	for i := 0; i < n; i++ {
		if i == query {
			dist[i] = math.Inf(1)
			continue
		}
		dist[i] = mat.SqDist(joint.Row(query), joint.Row(i))
	}
	perm := cl.Parties[0].perm
	type cand struct {
		pid int
		d   float64
	}
	cands := make([]cand, 0, n-1)
	for i := 0; i < n; i++ {
		if i == query {
			continue
		}
		cands = append(cands, cand{pid: perm[i], d: dist[i]})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].d != cands[b].d {
			return cands[a].d < cands[b].d
		}
		return cands[a].pid < cands[b].pid
	})
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = cands[i].pid
	}
	return out
}

func TestRunQueryMatchesBruteForce(t *testing.T) {
	d, pt := testPartition(t, "Rice", 120, 4)
	cl := newCluster(t, pt, "plain")
	ctx := context.Background()
	for _, variant := range []Variant{VariantBase, VariantFagin} {
		for _, q := range []int{0, 17, 119} {
			res, err := cl.Leader.RunQuery(ctx, q, 5, variant)
			if err != nil {
				t.Fatalf("%s query %d: %v", variant, q, err)
			}
			want := bruteNeighbors(d, pt, cl, q, 5)
			got := append([]int{}, res.Neighbors...)
			// Distances can tie; compare as sets of the same size with the
			// same distance multiset by checking sorted ids match.
			sort.Ints(got)
			wantSorted := append([]int{}, want...)
			sort.Ints(wantSorted)
			for i := range got {
				if got[i] != wantSorted[i] {
					t.Fatalf("%s query %d: neighbours %v, want %v", variant, q, res.Neighbors, want)
				}
			}
		}
	}
}

func TestBaseAndFaginAgree(t *testing.T) {
	_, pt := testPartition(t, "Bank", 100, 4)
	cl := newCluster(t, pt, "plain")
	ctx := context.Background()
	queries := []int{1, 5, 33, 77}
	base, err := cl.Leader.Similarities(ctx, queries, 5, VariantBase, 1)
	if err != nil {
		t.Fatal(err)
	}
	fagin, err := cl.Leader.Similarities(ctx, queries, 5, VariantFagin, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.W {
		for j := range base.W[i] {
			if math.Abs(base.W[i][j]-fagin.W[i][j]) > 1e-9 {
				t.Fatalf("W[%d][%d]: base %g fagin %g", i, j, base.W[i][j], fagin.W[i][j])
			}
		}
	}
	if fagin.AvgCandidates > base.AvgCandidates {
		t.Fatalf("fagin candidates %g exceed base %g", fagin.AvgCandidates, base.AvgCandidates)
	}
}

func TestPaillierAndPlainAgree(t *testing.T) {
	_, pt := testPartition(t, "Rice", 60, 3)
	plain := newCluster(t, pt, "plain")
	pail := newCluster(t, pt, "paillier")
	ctx := context.Background()
	queries := []int{2, 30}
	a, err := plain.Leader.Similarities(ctx, queries, 4, VariantFagin, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pail.Leader.Similarities(ctx, queries, 4, VariantFagin, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.W {
		for j := range a.W[i] {
			if math.Abs(a.W[i][j]-b.W[i][j]) > 1e-6 {
				t.Fatalf("W[%d][%d]: plain %g paillier %g", i, j, a.W[i][j], b.W[i][j])
			}
		}
	}
}

func TestSimilarityMatrixProperties(t *testing.T) {
	_, pt := testPartition(t, "Credit", 150, 4)
	cl := newCluster(t, pt, "plain")
	rep, err := cl.Leader.Similarities(context.Background(), []int{3, 9, 50, 100, 149}, 5, VariantFagin, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := len(rep.W)
	for i := 0; i < p; i++ {
		if rep.W[i][i] != 1 {
			t.Fatalf("diagonal W[%d][%d] = %g", i, i, rep.W[i][i])
		}
		for j := 0; j < p; j++ {
			if rep.W[i][j] < 0 || rep.W[i][j] > 1+1e-9 {
				t.Fatalf("W[%d][%d] = %g out of [0,1]", i, j, rep.W[i][j])
			}
			if math.Abs(rep.W[i][j]-rep.W[j][i]) > 1e-12 {
				t.Fatalf("asymmetry at %d,%d", i, j)
			}
		}
	}
}

func TestDuplicatePartiesHaveUnitSimilarity(t *testing.T) {
	_, pt := testPartition(t, "Rice", 80, 3)
	dup := pt.WithDuplicates(1, 11) // party 3 duplicates some original
	cl := newCluster(t, dup, "plain")
	rep, err := cl.Leader.Similarities(context.Background(), []int{4, 40, 70}, 5, VariantFagin, 1)
	if err != nil {
		t.Fatal(err)
	}
	src := dup.DuplicateOf[3]
	if w := rep.W[3][src]; math.Abs(w-1) > 1e-9 {
		t.Fatalf("duplicate similarity W[3][%d] = %g, want 1", src, w)
	}
}

func TestFaginPrunesCandidates(t *testing.T) {
	// With correlated partitions, Fagin must encrypt far fewer than N-1
	// instances per query.
	_, pt := testPartition(t, "Phishing", 400, 4)
	cl := newCluster(t, pt, "plain")
	rep, err := cl.Leader.Similarities(context.Background(), []int{10, 200}, 5, VariantFagin, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AvgCandidates >= 399 {
		t.Fatalf("no pruning: %g candidates", rep.AvgCandidates)
	}
	t.Logf("avg candidates: %g of 399", rep.AvgCandidates)
}

func TestCountsAccounting(t *testing.T) {
	_, pt := testPartition(t, "Rice", 60, 3)
	cl := newCluster(t, pt, "plain")
	ctx := context.Background()
	if _, err := cl.Leader.Similarities(ctx, []int{5}, 4, VariantBase, 1); err != nil {
		t.Fatal(err)
	}
	counts, err := cl.Leader.GatherCounts(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Every party encrypts N-1 = 59 partial distances in BASE.
	for i := 0; i < 3; i++ {
		c := counts[PartyName(i)]
		if c.Encryptions != 59 {
			t.Fatalf("party %d encryptions = %d, want 59", i, c.Encryptions)
		}
		if c.DistanceFlops == 0 {
			t.Fatalf("party %d distance flops missing", i)
		}
	}
	// The server aggregates (P-1)*59 ciphertext additions.
	if c := counts[AggServerName]; c.CipherAdds != 2*59 {
		t.Fatalf("agg cipher adds = %d, want 118", c.CipherAdds)
	}
	// The leader decrypts all 59 aggregated distances.
	if c := counts["leader"]; c.Decryptions != 59 {
		t.Fatalf("leader decryptions = %d, want 59", c.Decryptions)
	}
	// Totals must equal the per-node sum.
	total, err := cl.Leader.TotalCounts(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var manual int64
	for _, c := range counts {
		manual += c.Encryptions
	}
	if total.Encryptions != manual {
		t.Fatal("TotalCounts mismatch")
	}
	// Reset must zero everything.
	if err := cl.Leader.ResetAllCounts(ctx); err != nil {
		t.Fatal(err)
	}
	total, _ = cl.Leader.TotalCounts(ctx)
	if total.Encryptions != 0 || total.Decryptions != 0 {
		t.Fatal("reset did not clear counters")
	}
}

func TestFaginEncryptsFewerThanBase(t *testing.T) {
	_, pt := testPartition(t, "Phishing", 300, 4)
	cl := newCluster(t, pt, "plain")
	ctx := context.Background()
	if _, err := cl.Leader.Similarities(ctx, []int{7, 70}, 5, VariantBase, 1); err != nil {
		t.Fatal(err)
	}
	baseTotal, _ := cl.Leader.TotalCounts(ctx)
	if err := cl.Leader.ResetAllCounts(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Leader.Similarities(ctx, []int{7, 70}, 5, VariantFagin, 1); err != nil {
		t.Fatal(err)
	}
	faginTotal, _ := cl.Leader.TotalCounts(ctx)
	if faginTotal.Encryptions >= baseTotal.Encryptions {
		t.Fatalf("fagin encryptions %d not fewer than base %d",
			faginTotal.Encryptions, baseTotal.Encryptions)
	}
	t.Logf("encryptions: base %d, fagin %d", baseTotal.Encryptions, faginTotal.Encryptions)
}

func TestLeaderValidation(t *testing.T) {
	_, pt := testPartition(t, "Rice", 40, 2)
	cl := newCluster(t, pt, "plain")
	ctx := context.Background()
	if _, err := cl.Leader.RunQuery(ctx, 0, 0, VariantBase); err == nil {
		t.Fatal("expected k=0 error")
	}
	if _, err := cl.Leader.RunQuery(ctx, 0, 5, Variant("bogus")); err == nil {
		t.Fatal("expected variant error")
	}
	if _, err := cl.Leader.RunQuery(ctx, -1, 5, VariantBase); err == nil {
		t.Fatal("expected query range error")
	}
	if _, err := cl.Leader.RunQuery(ctx, 0, 40, VariantBase); err == nil {
		t.Fatal("expected k>candidates error")
	}
	if _, err := cl.Leader.Similarities(ctx, nil, 5, VariantBase, 1); err == nil {
		t.Fatal("expected empty query set error")
	}
}

func TestClusterValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := NewLocalCluster(ctx, ClusterConfig{}); err == nil {
		t.Fatal("expected partition error")
	}
	_, pt := testPartition(t, "Rice", 40, 2)
	if _, err := NewLocalCluster(ctx, ClusterConfig{Partition: pt, Scheme: "rot13"}); err == nil {
		t.Fatal("expected scheme error")
	}
	if _, err := NewLocalCluster(ctx, ClusterConfig{Partition: pt, Wire: "gob"}); err == nil {
		t.Fatal("expected codec error: binary is the only codec")
	}
}

func TestParticipantFailureSurfacesError(t *testing.T) {
	_, pt := testPartition(t, "Rice", 40, 3)
	cl := newCluster(t, pt, "plain")
	cl.Transport.InjectFailure(PartyName(1))
	_, err := cl.Leader.Similarities(context.Background(), []int{3}, 4, VariantFagin, 1)
	if !errors.Is(err, transport.ErrInjectedFailure) {
		t.Fatalf("expected injected failure, got %v", err)
	}
	// Recovery: clearing the fault restores service.
	cl.Transport.InjectFailure("")
	if _, err := cl.Leader.Similarities(context.Background(), []int{3}, 4, VariantFagin, 1); err != nil {
		t.Fatalf("cluster did not recover: %v", err)
	}
}

func TestAggServerFailure(t *testing.T) {
	_, pt := testPartition(t, "Rice", 40, 3)
	cl := newCluster(t, pt, "plain")
	cl.Transport.InjectFailure(AggServerName)
	if _, err := cl.Leader.RunQuery(context.Background(), 0, 3, VariantBase); err == nil {
		t.Fatal("expected error when aggregation server is down")
	}
}

func TestIdentitySecurityPseudoIDs(t *testing.T) {
	// The ranking a participant ships to the server must be pseudo IDs, not
	// original IDs: for a non-trivial shuffle they differ.
	_, pt := testPartition(t, "Rice", 50, 2)
	cl := newCluster(t, pt, "plain")
	party := cl.Parties[0]
	qc, err := party.distances(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	identical := true
	for rank, pid := range qc.sortedPid {
		if party.inv[pid] != qc.sortedPid[rank] {
			identical = false
			break
		}
	}
	// Verify the permutation is actually shuffling (overwhelmingly likely).
	moved := 0
	for orig, pid := range party.perm {
		if orig != pid {
			moved++
		}
	}
	if moved < 10 {
		t.Fatalf("shuffle barely permutes: %d moved", moved)
	}
	_ = identical // rankings are pseudo-id space by construction; perm check above is the guarantee
	// All parties must share the same permutation.
	for i := 1; i < len(cl.Parties); i++ {
		for j, v := range cl.Parties[i].perm {
			if v != cl.Parties[0].perm[j] {
				t.Fatal("participants disagree on the pseudo-ID permutation")
			}
		}
	}
}

func TestParticipantValidation(t *testing.T) {
	if _, err := NewParticipant(0, nil, nil, 1); err == nil {
		t.Fatal("expected nil-data error")
	}
	m := mat.New(3, 2)
	if _, err := NewParticipant(0, m, nil, 1); err == nil {
		t.Fatal("expected nil-scheme error")
	}
}

func TestTCPClusterEndToEnd(t *testing.T) {
	// Wire the full topology over real TCP sockets: one server per role.
	_, pt := testPartition(t, "Rice", 60, 3)
	ctx := context.Background()

	ks, err := NewKeyServer("plain", 0)
	if err != nil {
		t.Fatal(err)
	}
	keySrv, err := transport.ListenTCP("127.0.0.1:0", ks.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer keySrv.Close()

	directory := map[string]string{KeyServerName: keySrv.Addr()}
	bootstrapCli := transport.NewTCPClient(directory)
	defer bootstrapCli.Close()
	pub, err := FetchPublicSchemeWire(ctx, transport.NewCodecCaller(bootstrapCli, nil), KeyServerName)
	if err != nil {
		t.Fatal(err)
	}

	partyNames := make([]string, pt.P())
	var partySrvs []*transport.TCPServer
	for i := 0; i < pt.P(); i++ {
		part, err := NewParticipant(i, pt.Parties[i], pub, 7)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := transport.ListenTCP("127.0.0.1:0", part.Handler())
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		partySrvs = append(partySrvs, srv)
		partyNames[i] = PartyName(i)
		directory[partyNames[i]] = srv.Addr()
	}
	_ = partySrvs

	aggCli := transport.NewTCPClient(directory)
	defer aggCli.Close()
	agg, err := NewAggServer(aggCli, partyNames, pub)
	if err != nil {
		t.Fatal(err)
	}
	aggSrv, err := transport.ListenTCP("127.0.0.1:0", agg.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer aggSrv.Close()
	directory[AggServerName] = aggSrv.Addr()

	leaderCli := transport.NewTCPClient(directory)
	defer leaderCli.Close()
	priv, err := FetchPrivateSchemeWire(ctx, transport.NewCodecCaller(leaderCli, nil), KeyServerName)
	if err != nil {
		t.Fatal(err)
	}
	leader, err := NewLeader(leaderCli, AggServerName, partyNames, priv, 8)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := leader.Similarities(ctx, []int{2, 30, 59}, 4, VariantFagin, 1)
	if err != nil {
		t.Fatal(err)
	}

	// The TCP run must agree with the in-memory run bit-for-bit.
	mem := newCluster(t, pt, "plain")
	memRep, err := mem.Leader.Similarities(ctx, []int{2, 30, 59}, 4, VariantFagin, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.W {
		for j := range rep.W[i] {
			if math.Abs(rep.W[i][j]-memRep.W[i][j]) > 1e-12 {
				t.Fatalf("TCP vs memory divergence at %d,%d", i, j)
			}
		}
	}
}

func TestThresholdVariantMatchesBase(t *testing.T) {
	_, pt := testPartition(t, "Bank", 120, 4)
	cl := newCluster(t, pt, "plain")
	ctx := context.Background()
	queries := []int{0, 25, 60, 119}
	base, err := cl.Leader.Similarities(ctx, queries, 5, VariantBase, 1)
	if err != nil {
		t.Fatal(err)
	}
	ta, err := cl.Leader.Similarities(ctx, queries, 5, VariantThreshold, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.W {
		for j := range base.W[i] {
			if math.Abs(base.W[i][j]-ta.W[i][j]) > 1e-9 {
				t.Fatalf("W[%d][%d]: base %g threshold %g", i, j, base.W[i][j], ta.W[i][j])
			}
		}
	}
	if ta.AvgCandidates > base.AvgCandidates {
		t.Fatalf("TA candidates %g exceed base %g", ta.AvgCandidates, base.AvgCandidates)
	}
}

func TestThresholdPrunesAtLeastAsHardAsFagin(t *testing.T) {
	_, pt := testPartition(t, "Phishing", 400, 4)
	cl := newCluster(t, pt, "plain")
	ctx := context.Background()
	queries := []int{10, 200}
	fagin, err := cl.Leader.Similarities(ctx, queries, 5, VariantFagin, 1)
	if err != nil {
		t.Fatal(err)
	}
	ta, err := cl.Leader.Similarities(ctx, queries, 5, VariantThreshold, 1)
	if err != nil {
		t.Fatal(err)
	}
	// TA stops as soon as the bound allows; it must not see substantially
	// more candidates than Fagin under the same batch size.
	if ta.AvgCandidates > fagin.AvgCandidates+float64(8*pt.P()) {
		t.Fatalf("TA candidates %g much worse than Fagin %g", ta.AvgCandidates, fagin.AvgCandidates)
	}
	t.Logf("candidates: fagin %.1f, threshold %.1f", fagin.AvgCandidates, ta.AvgCandidates)
}

func TestThresholdVariantWithPaillier(t *testing.T) {
	_, pt := testPartition(t, "Rice", 60, 3)
	cl := newCluster(t, pt, "paillier")
	res, err := cl.Leader.RunQuery(context.Background(), 5, 4, VariantThreshold)
	if err != nil {
		t.Fatal(err)
	}
	plain := newCluster(t, pt, "plain")
	want, err := plain.Leader.RunQuery(context.Background(), 5, 4, VariantBase)
	if err != nil {
		t.Fatal(err)
	}
	got := append([]int{}, res.Neighbors...)
	wantN := append([]int{}, want.Neighbors...)
	sort.Ints(got)
	sort.Ints(wantN)
	for i := range got {
		if got[i] != wantN[i] {
			t.Fatalf("TA+paillier neighbours %v, want %v", res.Neighbors, want.Neighbors)
		}
	}
}

func TestThresholdUsesMoreLeaderRoundsThanFagin(t *testing.T) {
	// The reason the paper prefers Fagin: TA's termination check needs a
	// leader decryption per scan round.
	_, pt := testPartition(t, "Credit", 200, 4)
	cl := newCluster(t, pt, "plain")
	ctx := context.Background()
	if _, err := cl.Leader.Similarities(ctx, []int{7}, 5, VariantFagin, 1); err != nil {
		t.Fatal(err)
	}
	faginLeader := cl.Leader.Counts()
	if err := cl.Leader.ResetAllCounts(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Leader.Similarities(ctx, []int{7}, 5, VariantThreshold, 1); err != nil {
		t.Fatal(err)
	}
	taLeader := cl.Leader.Counts()
	// Fagin decrypts once per candidate; TA additionally decrypts a τ per
	// round, so with similar candidate counts TA's leader does no less work.
	if taLeader.Decryptions == 0 || faginLeader.Decryptions == 0 {
		t.Fatal("missing decryption accounting")
	}
	t.Logf("leader decryptions: fagin %d, threshold %d", faginLeader.Decryptions, taLeader.Decryptions)
}

func TestParallelSimilaritiesMatchSequential(t *testing.T) {
	_, pt := testPartition(t, "Credit", 200, 4)
	cl := newCluster(t, pt, "plain")
	ctx := context.Background()
	queries := []int{1, 20, 40, 60, 80, 100, 120, 140, 160, 199}
	seq, err := cl.Leader.Similarities(ctx, queries, 5, VariantFagin, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := cl.Leader.Similarities(ctx, queries, 5, VariantFagin, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.W {
		for j := range seq.W[i] {
			if seq.W[i][j] != par.W[i][j] {
				t.Fatalf("parallel diverges at %d,%d: %g vs %g", i, j, seq.W[i][j], par.W[i][j])
			}
		}
	}
	if seq.AvgCandidates != par.AvgCandidates {
		t.Fatal("candidate stats diverge")
	}
}

func TestParallelSimilaritiesErrorPropagates(t *testing.T) {
	_, pt := testPartition(t, "Rice", 50, 3)
	cl := newCluster(t, pt, "plain")
	// One invalid query among many must fail the whole batch.
	queries := []int{1, 2, 3, -5, 4, 5}
	if _, err := cl.Leader.Similarities(context.Background(), queries, 4, VariantFagin, 3); err == nil {
		t.Fatal("expected error for invalid query")
	}
}

func TestParticipantCacheEviction(t *testing.T) {
	_, pt := testPartition(t, "Rice", 60, 2)
	cl := newCluster(t, pt, "plain")
	party := cl.Parties[0]
	// Touch more queries than the cache holds.
	for q := 0; q < cacheLimit+10; q++ {
		if _, err := party.distances(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	party.mu.Lock()
	size := len(party.cache)
	party.mu.Unlock()
	if size > cacheLimit {
		t.Fatalf("cache grew to %d entries (limit %d)", size, cacheLimit)
	}
	// Evicted entries must still be recomputable.
	if _, err := party.distances(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
}

func TestSecAggClusterMatchesPlain(t *testing.T) {
	_, pt := testPartition(t, "Bank", 100, 4)
	plain := newCluster(t, pt, "plain")
	masked := newCluster(t, pt, "secagg")
	ctx := context.Background()
	queries := []int{1, 30, 75}
	for _, variant := range []Variant{VariantBase, VariantFagin, VariantThreshold} {
		a, err := plain.Leader.Similarities(ctx, queries, 5, variant, 1)
		if err != nil {
			t.Fatalf("plain/%s: %v", variant, err)
		}
		b, err := masked.Leader.Similarities(ctx, queries, 5, variant, 1)
		if err != nil {
			t.Fatalf("secagg/%s: %v", variant, err)
		}
		for i := range a.W {
			for j := range a.W[i] {
				if math.Abs(a.W[i][j]-b.W[i][j]) > 1e-4 {
					t.Fatalf("%s: W[%d][%d]: plain %g secagg %g", variant, i, j, a.W[i][j], b.W[i][j])
				}
			}
		}
	}
}

func TestSecAggHidesValuesFromServer(t *testing.T) {
	// The aggregation server sees only masked words: a single party's
	// response must not decode to its true partial distance.
	_, pt := testPartition(t, "Rice", 50, 3)
	cl := newCluster(t, pt, "secagg")
	party := cl.Parties[0]
	raw, err := party.Handler()(context.Background(), MethodEncryptCandidates,
		mustWire(&EncryptCandidatesReq{Query: 0, PseudoIDs: []int{1, 2, 3}}))
	if err != nil {
		t.Fatal(err)
	}
	var resp EncryptCandidatesResp
	if err := wire.Binary().Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	qc, err := party.distances(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	scheme := cl.Leader.Scheme()
	for i, pid := range []int{1, 2, 3} {
		truth := qc.dist[party.inv[pid]]
		decoded, err := scheme.Decrypt(resp.Ciphers[i])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(decoded-truth) < 1e-3 {
			t.Fatalf("server could read party 0's partial distance %g", truth)
		}
	}
}

func TestSecAggNoHEOperations(t *testing.T) {
	// Masking replaces public-key work with hashing: ciphertexts are 8-byte
	// words, so communication drops by ~32x vs a 1024-bit-modulus scheme.
	_, pt := testPartition(t, "Rice", 60, 3)
	cl := newCluster(t, pt, "secagg")
	ctx := context.Background()
	if _, err := cl.Leader.Similarities(ctx, []int{5}, 4, VariantFagin, 1); err != nil {
		t.Fatal(err)
	}
	counts, err := cl.Leader.GatherCounts(ctx)
	if err != nil {
		t.Fatal(err)
	}
	p0 := counts[PartyName(0)]
	if p0.Encryptions == 0 {
		t.Fatal("masking ops should still be counted as protections")
	}
	if p0.BytesSent >= p0.ItemsSent*32 {
		t.Fatalf("secagg bytes/item too high: %d bytes for %d items", p0.BytesSent, p0.ItemsSent)
	}
}

func TestDPClusterRunsAndPerturbs(t *testing.T) {
	_, pt := testPartition(t, "Rice", 80, 3)
	ctx := context.Background()
	mk := func(eps float64) *SimilarityReport {
		cl, err := NewLocalCluster(ctx, ClusterConfig{
			Partition: pt, Scheme: "dp", DPEpsilon: eps, DPDelta: 1e-5,
			ShuffleSeed: 7, Batch: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := cl.Leader.Similarities(ctx, []int{3, 40, 70}, 5, VariantFagin, 1)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	plain := newCluster(t, pt, "plain")
	truth, err := plain.Leader.Similarities(ctx, []int{3, 40, 70}, 5, VariantFagin, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Large epsilon: W close to the exact protocol.
	weak := mk(1000)
	for i := range truth.W {
		for j := range truth.W[i] {
			if math.Abs(weak.W[i][j]-truth.W[i][j]) > 0.05 {
				t.Fatalf("ε=1000 should barely perturb: W[%d][%d] %g vs %g",
					i, j, weak.W[i][j], truth.W[i][j])
			}
		}
	}
	// Tiny epsilon: the estimate must visibly differ somewhere (the paper's
	// point that noise costs accuracy).
	strong := mk(0.01)
	var maxDiff float64
	for i := range truth.W {
		for j := range truth.W[i] {
			if d := math.Abs(strong.W[i][j] - truth.W[i][j]); d > maxDiff {
				maxDiff = d
			}
		}
	}
	if maxDiff < 1e-4 {
		t.Fatalf("ε=0.01 left the similarity estimate untouched (max diff %g)", maxDiff)
	}
}

func TestDPClusterValidation(t *testing.T) {
	_, pt := testPartition(t, "Rice", 40, 2)
	if _, err := NewLocalCluster(context.Background(), ClusterConfig{
		Partition: pt, Scheme: "dp", DPEpsilon: -2,
	}); err == nil {
		t.Fatal("expected epsilon validation error")
	}
}

func TestAddParticipantSecAggRejected(t *testing.T) {
	_, pt := testPartition(t, "Rice", 40, 2)
	cl := newCluster(t, pt, "secagg")
	if _, err := cl.AddParticipant(pt.Parties[0]); err == nil {
		t.Fatal("expected secagg fixed-size error")
	}
}

func TestFetchSchemeErrors(t *testing.T) {
	tr := &transport.Memory{}
	ctx := context.Background()
	// Key server absent.
	if _, err := FetchPublicSchemeWire(ctx, transport.NewCodecCaller(tr, nil), KeyServerName); err == nil {
		t.Fatal("expected unknown-peer error")
	}
	if _, err := FetchPrivateSchemeWire(ctx, transport.NewCodecCaller(tr, nil), KeyServerName); err == nil {
		t.Fatal("expected unknown-peer error")
	}
	// Key server speaking an unknown scheme.
	tr.Register(KeyServerName, func(ctx context.Context, method string, req []byte) ([]byte, error) {
		return wire.Binary().Marshal(&PublicKeyResp{Scheme: "rot13"})
	})
	if _, err := FetchPublicSchemeWire(ctx, transport.NewCodecCaller(tr, nil), KeyServerName); err == nil {
		t.Fatal("expected unknown-scheme error")
	}
	// Garbage payload.
	tr.Register(KeyServerName, func(ctx context.Context, method string, req []byte) ([]byte, error) {
		return []byte{0xff, 0x01}, nil
	})
	if _, err := FetchPublicSchemeWire(ctx, transport.NewCodecCaller(tr, nil), KeyServerName); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestKeyServerValidation(t *testing.T) {
	if _, err := NewKeyServer("rot13", 0); err == nil {
		t.Fatal("expected unknown-scheme error")
	}
	if _, err := NewKeyServerSecAgg(1, 1); err == nil {
		t.Fatal("expected parties error")
	}
	if _, err := NewKeyServerDP(-1, 1e-5, 1); err == nil {
		t.Fatal("expected epsilon error")
	}
	ks, err := NewKeyServer("plain", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ks.Handler()(context.Background(), "nope", mustWire(nil)); !errors.Is(err, transport.ErrUnknownMethod) {
		t.Fatalf("unknown method: got %v", err)
	}
}

func TestParticipantHandlerErrors(t *testing.T) {
	_, pt := testPartition(t, "Rice", 30, 2)
	cl := newCluster(t, pt, "plain")
	h := cl.Parties[0].Handler()
	ctx := context.Background()
	if _, err := h(ctx, "nope", mustWire(nil)); !errors.Is(err, transport.ErrUnknownMethod) {
		t.Fatalf("unknown method: got %v", err)
	}
	if _, err := h(ctx, MethodRankingBatch, []byte{0xff}); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("non-envelope request: got %v, want wire.ErrCorrupt", err)
	}
	if _, err := h(ctx, MethodRankingBatch, mustWire(&RankingBatchReq{Query: 0, Offset: -1, Count: 5})); err == nil {
		t.Fatal("expected offset error")
	}
	if _, err := h(ctx, MethodRankingBatch, mustWire(&RankingBatchReq{Query: 0, Offset: 0, Count: 0})); err == nil {
		t.Fatal("expected count error")
	}
	if _, err := h(ctx, MethodEncryptCandidates, mustWire(&EncryptCandidatesReq{Query: 0, PseudoIDs: []int{999}})); err == nil {
		t.Fatal("expected candidate range error")
	}
	if _, err := h(ctx, MethodNeighborSum, mustWire(&NeighborSumReq{Query: 0, PseudoIDs: []int{-1}})); err == nil {
		t.Fatal("expected neighbour range error")
	}
	if _, err := h(ctx, MethodEncryptRankScore, mustWire(&EncryptRankScoreReq{Query: 0, Rank: -3})); err == nil {
		t.Fatal("expected rank error")
	}
}

func TestSimilaritiesContextCancellation(t *testing.T) {
	_, pt := testPartition(t, "Credit", 200, 4)
	cl := newCluster(t, pt, "plain")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cl.Leader.Similarities(ctx, []int{1, 2, 3, 4}, 5, VariantFagin, 2); err == nil {
		t.Fatal("expected cancellation error")
	}
}

func TestAggServerHandlerErrors(t *testing.T) {
	_, pt := testPartition(t, "Rice", 30, 2)
	cl := newCluster(t, pt, "plain")
	h := cl.Agg.Handler()
	ctx := context.Background()
	if _, err := h(ctx, "nope", mustWire(nil)); !errors.Is(err, transport.ErrUnknownMethod) {
		t.Fatalf("unknown method: got %v", err)
	}
	if _, err := h(ctx, MethodFaginCollect, mustWire(&FaginCollectReq{Query: 0, K: 0, Batch: 8})); err == nil {
		t.Fatal("expected k validation error")
	}
	if _, err := h(ctx, MethodFaginCollect, mustWire(&FaginCollectReq{Query: 0, K: 5, Batch: 0})); err == nil {
		t.Fatal("expected batch validation error")
	}
	if _, err := h(ctx, MethodFaginCollect, mustWire(&FaginCollectReq{Query: 0, K: 99, Batch: 8})); err == nil {
		t.Fatal("expected exhaustion error")
	}
}

// mustWire encodes a request with the binary codec; a nil message yields
// the bare envelope of a body-less call.
func mustWire(m wire.Message) []byte {
	raw, err := wire.Binary().Marshal(m)
	if err != nil {
		panic(err)
	}
	return raw
}

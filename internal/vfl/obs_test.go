package vfl

import (
	"context"
	"testing"

	"vfps/internal/obs"
)

// observedCluster builds a Paillier cluster with an explicit observer, so the
// test exercises the full instrumentation path (transport, HE, role spans).
func observedCluster(t *testing.T, parties int) (*Cluster, *obs.Observer) {
	t.Helper()
	_, pt := testPartition(t, "Bank", 60, parties)
	o := obs.NewObserver(1024)
	cl, err := NewLocalCluster(context.Background(), ClusterConfig{
		Partition:   pt,
		Scheme:      "paillier",
		KeyBits:     256,
		ShuffleSeed: 7,
		Batch:       8,
		Obs:         o,
		Instance:    "test",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl, o
}

// TestQuerySpanTree asserts the protocol phases of one KNN query form a
// single span tree rooted at vfl.query, in protocol order: the aggregation
// server's Fagin scan (with the parties' distance/encrypt work beneath it)
// strictly precedes the leader-side decrypt.
func TestQuerySpanTree(t *testing.T) {
	cl, o := observedCluster(t, 3)
	// Cluster construction distributes keys over the transport and records
	// spans of its own; discard them so the report holds one query's tree.
	o.Tracer().Reset()
	if _, err := cl.Leader.RunQuery(context.Background(), 5, 4, VariantFagin); err != nil {
		t.Fatal(err)
	}

	rep := o.Tracer().Report()
	byID := map[uint64]obs.SpanData{}
	byName := map[string][]obs.SpanData{}
	for _, s := range rep.Spans {
		byID[s.ID] = s
		byName[s.Name] = append(byName[s.Name], s)
	}

	roots := byName[SpanQuery]
	if len(roots) != 1 {
		t.Fatalf("want exactly one %s root span, got %d (all: %v)", SpanQuery, len(roots), names(rep.Spans))
	}
	query := roots[0]
	if query.Parent != 0 {
		t.Fatalf("%s must be a root span, has parent %d", SpanQuery, query.Parent)
	}
	if query.Labels["variant"] != string(VariantFagin) {
		t.Fatalf("query labels = %v", query.Labels)
	}

	// Every other span must sit somewhere under the query root.
	for _, s := range rep.Spans {
		if s.ID == query.ID {
			continue
		}
		cur := s
		for cur.Parent != 0 {
			cur = byID[cur.Parent]
		}
		if cur.ID != query.ID {
			t.Fatalf("span %s (id %d) does not nest under %s", s.Name, s.ID, SpanQuery)
		}
	}

	for _, want := range []string{SpanFagin, SpanDecrypt, SpanNeighborSums, SpanDistances, SpanEncrypt, SpanReduce} {
		if len(byName[want]) == 0 {
			t.Fatalf("missing %s span (have %v)", want, names(rep.Spans))
		}
	}
	// Phase order within the query: the Fagin scan produces the encrypted
	// scores the leader then decrypts; the neighbour-sum fan-out is last.
	fagin, decrypt, sums := byName[SpanFagin][0], byName[SpanDecrypt][0], byName[SpanNeighborSums][0]
	if !fagin.Start.Before(decrypt.Start) {
		t.Fatal("agg.fagin must start before vfl.decrypt")
	}
	if !decrypt.Start.Before(sums.Start) {
		t.Fatal("vfl.decrypt must start before vfl.neighborSums")
	}
	// The parties' distance scans happen inside the Fagin phase.
	for _, d := range byName[SpanDistances] {
		if d.Start.Before(fagin.Start) {
			t.Fatal("party.distances must not start before agg.fagin")
		}
	}
}

// TestObservedMetricsPopulate asserts a query drives every wired metric
// family: transport counters, HE op counters, and the cost-model gauges.
func TestObservedMetricsPopulate(t *testing.T) {
	cl, o := observedCluster(t, 3)
	if _, err := cl.Leader.RunQuery(context.Background(), 2, 4, VariantBase); err != nil {
		t.Fatal(err)
	}

	fams := map[string]obs.FamilySnapshot{}
	for _, f := range o.Registry().Snapshot() {
		fams[f.Name] = f
	}
	// Series totals per family we expect traffic on.
	sum := func(name string) float64 {
		var tot float64
		for _, s := range fams[name].Series {
			tot += s.Value
		}
		return tot
	}
	if sum("vfps_transport_calls_total") == 0 {
		t.Fatal("no transport calls recorded")
	}
	if got := sum("vfps_transport_errors_total"); got != 0 {
		t.Fatalf("unexpected transport errors: %g", got)
	}
	if sum("vfps_he_ops_total") == 0 {
		t.Fatal("no HE ops recorded")
	}
	if sum("vfps_cost_ops") == 0 {
		t.Fatal("cost-model gauges empty")
	}
	// Latency histograms observe once per call.
	if sum("vfps_transport_call_seconds") != sum("vfps_transport_calls_total") {
		t.Fatalf("call histogram count %g != calls %g",
			sum("vfps_transport_call_seconds"), sum("vfps_transport_calls_total"))
	}
}

// TestDisabledObservabilityIsInert pins the opt-in contract: without an
// observer the cluster records nothing and pays no tracer allocations.
func TestDisabledObservabilityIsInert(t *testing.T) {
	_, pt := testPartition(t, "Bank", 40, 3)
	cl, err := NewLocalCluster(context.Background(), ClusterConfig{
		Partition: pt, Scheme: "plain", ShuffleSeed: 7, Batch: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Leader.RunQuery(context.Background(), 1, 3, VariantFagin); err != nil {
		t.Fatal(err)
	}
	if o := cl.Observer(); o != nil {
		t.Fatalf("cluster without Obs must have a nil observer, got %v", o)
	}
}

// TestTracedSelectionIdentity pins the acceptance contract that tracing is
// purely observational: a cluster with full observability (spans, query IDs
// on the wire, query-log events) produces the bit-identical similarity
// matrix of an identically seeded cluster with no observer at all.
func TestTracedSelectionIdentity(t *testing.T) {
	ctx := context.Background()
	_, pt := testPartition(t, "Bank", 40, 3)
	queries := []int{0, 13, 39}

	plain, err := NewLocalCluster(ctx, ClusterConfig{
		Partition: pt, Scheme: "paillier", KeyBits: 256, ShuffleSeed: 7, Batch: 8, Wire: "binary",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	o := obs.NewObserver(1024)
	traced, err := NewLocalCluster(ctx, ClusterConfig{
		Partition: pt, Scheme: "paillier", KeyBits: 256, ShuffleSeed: 7, Batch: 8, Wire: "binary",
		Obs: o, Instance: "test",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer traced.Close()

	prep, err := plain.Leader.Similarities(ctx, queries, 3, VariantFagin, 1)
	if err != nil {
		t.Fatal(err)
	}
	trep, err := traced.Leader.Similarities(ctx, queries, 3, VariantFagin, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range prep.W {
		for j := range prep.W[i] {
			if prep.W[i][j] != trep.W[i][j] {
				t.Fatalf("W[%d][%d] differs with tracing on: %v vs %v", i, j, prep.W[i][j], trep.W[i][j])
			}
		}
	}
	// The traced run must have accounted its queries: one event per query,
	// each carrying a minted ID, a trace and phase latencies.
	slow := o.Log().Slowest()
	if len(slow) != len(queries) {
		t.Fatalf("query log retained %d events, want %d", len(slow), len(queries))
	}
	for _, ev := range slow {
		if ev.Kind != "query" || ev.ID == "" || ev.Trace == "" || len(ev.Phases) == 0 {
			t.Fatalf("incomplete query event: %+v", ev)
		}
	}
}

func names(spans []obs.SpanData) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}

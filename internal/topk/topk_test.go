package topk

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func randomLists(rng *rand.Rand, p, n int) []*RankedList {
	lists := make([]*RankedList, p)
	for i := range lists {
		scores := make([]float64, n)
		for j := range scores {
			scores[j] = rng.Float64() * 100
		}
		lists[i] = NewRankedList(scores)
	}
	return lists
}

func TestRankedListSortedAscending(t *testing.T) {
	l := NewRankedList([]float64{5, 1, 3, 1})
	want := []int{1, 3, 2, 0} // ties by id: ids 1 and 3 share score 1
	if got := l.Ranking(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Ranking() = %v, want %v", got, want)
	}
	if l.Score(2) != 3 {
		t.Fatal("random access wrong")
	}
	if l.At(0).ID != 1 || l.At(0).Score != 1 {
		t.Fatal("At(0) wrong")
	}
}

func TestNaiveKnownAnswer(t *testing.T) {
	// Example from Fig. 2 shape: 3 parties, minimal-2.
	lists := []*RankedList{
		NewRankedList([]float64{1, 4, 2, 9}),
		NewRankedList([]float64{2, 8, 3, 7}),
		NewRankedList([]float64{1, 5, 6, 8}),
	}
	// Sums: X0=4, X1=17, X2=11, X3=24 -> minimal-2 = {0, 2}
	r, err := Naive(lists, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.TopK, []int{0, 2}) {
		t.Fatalf("Naive TopK = %v", r.TopK)
	}
}

func TestFaginMatchesNaiveKnownAnswer(t *testing.T) {
	lists := []*RankedList{
		NewRankedList([]float64{1, 4, 2, 9}),
		NewRankedList([]float64{2, 8, 3, 7}),
		NewRankedList([]float64{1, 5, 6, 8}),
	}
	f, err := Fagin(lists, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.TopK, []int{0, 2}) {
		t.Fatalf("Fagin TopK = %v", f.TopK)
	}
	if f.Stats.Candidates >= 4 {
		t.Logf("note: Fagin saw all candidates on this tiny input (%d)", f.Stats.Candidates)
	}
}

func TestThresholdMatchesNaiveKnownAnswer(t *testing.T) {
	lists := []*RankedList{
		NewRankedList([]float64{1, 4, 2, 9}),
		NewRankedList([]float64{2, 8, 3, 7}),
		NewRankedList([]float64{1, 5, 6, 8}),
	}
	r, err := Threshold(lists, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.TopK, []int{0, 2}) {
		t.Fatalf("Threshold TopK = %v", r.TopK)
	}
}

func TestValidation(t *testing.T) {
	lists := randomLists(rand.New(rand.NewSource(1)), 2, 10)
	if _, err := Fagin(nil, 2, 1); err == nil {
		t.Fatal("expected error for no lists")
	}
	if _, err := Fagin(lists, 0, 1); err == nil {
		t.Fatal("expected error for k=0")
	}
	if _, err := Fagin(lists, 11, 1); err == nil {
		t.Fatal("expected error for k>n")
	}
	if _, err := Fagin(lists, 2, 0); err == nil {
		t.Fatal("expected error for batch=0")
	}
	ragged := []*RankedList{NewRankedList([]float64{1}), NewRankedList([]float64{1, 2})}
	if _, err := Naive(ragged, 1); err == nil {
		t.Fatal("expected error for ragged lists")
	}
	if _, err := Threshold(lists, 0); err == nil {
		t.Fatal("expected error for TA k=0")
	}
}

// Property: Fagin result == Naive result on random inputs, for various
// batch sizes.
func TestFaginEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(5)
		n := 5 + rng.Intn(100)
		k := 1 + rng.Intn(n)
		batch := 1 + rng.Intn(10)
		lists := randomLists(rng, p, n)
		want, err := Naive(lists, k)
		if err != nil {
			return false
		}
		got, err := Fagin(lists, k, batch)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.TopK, want.TopK)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: TA result == Naive result on random inputs.
func TestThresholdEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(5)
		n := 5 + rng.Intn(100)
		k := 1 + rng.Intn(n)
		lists := randomLists(rng, p, n)
		want, err := Naive(lists, k)
		if err != nil {
			return false
		}
		got, err := Threshold(lists, k)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.TopK, want.TopK)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: with duplicated (perfectly correlated) lists Fagin terminates at
// depth k — the candidate set is as small as possible.
func TestFaginCorrelatedListsPruneHard(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	scores := make([]float64, 1000)
	for i := range scores {
		scores[i] = rng.Float64()
	}
	lists := []*RankedList{NewRankedList(scores), NewRankedList(scores), NewRankedList(scores)}
	r, err := Fagin(lists, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.ScanDepth != 10 {
		t.Fatalf("expected scan depth 10 on identical lists, got %d", r.Stats.ScanDepth)
	}
	if r.Stats.Candidates != 10 {
		t.Fatalf("expected 10 candidates, got %d", r.Stats.Candidates)
	}
}

// On anti-correlated lists Fagin must scan deep; its candidate count should
// approach n, never exceed it.
func TestFaginAntiCorrelated(t *testing.T) {
	n := 200
	asc := make([]float64, n)
	desc := make([]float64, n)
	for i := 0; i < n; i++ {
		asc[i] = float64(i)
		desc[i] = float64(n - i)
	}
	lists := []*RankedList{NewRankedList(asc), NewRankedList(desc)}
	r, err := Fagin(lists, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Candidates > n {
		t.Fatalf("candidates %d exceed n", r.Stats.Candidates)
	}
	want, _ := Naive(lists, 5)
	if !reflect.DeepEqual(r.TopK, want.TopK) {
		t.Fatalf("anti-correlated mismatch: %v vs %v", r.TopK, want.TopK)
	}
}

func TestFaginCandidatesContainTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lists := randomLists(rng, 4, 300)
	r, err := Fagin(lists, 15, 8)
	if err != nil {
		t.Fatal(err)
	}
	cand := make(map[int]bool, len(r.CandidateIDs))
	for _, id := range r.CandidateIDs {
		cand[id] = true
	}
	for _, id := range r.TopK {
		if !cand[id] {
			t.Fatalf("top-k id %d missing from candidates", id)
		}
	}
}

func TestFaginBatchInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	lists := randomLists(rng, 3, 500)
	var prev []int
	for _, b := range []int{1, 7, 32, 500} {
		r, err := Fagin(lists, 20, b)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && !reflect.DeepEqual(prev, r.TopK) {
			t.Fatalf("batch %d changed result", b)
		}
		prev = r.TopK
	}
}

func TestKSmallest(t *testing.T) {
	v := []float64{5, 1, 3, 1, 4}
	got := KSmallest(v, 3)
	want := []int{1, 3, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("KSmallest = %v, want %v", got, want)
	}
	if KSmallest(v, 0) != nil {
		t.Fatal("k=0 should return nil")
	}
	if len(KSmallest(v, 99)) != 5 {
		t.Fatal("k>n should clamp")
	}
}

// Statistics sanity: TA should never do more sorted accesses than Fagin with
// batch 1 needs rounds×p... both bounded by n×p.
func TestStatsBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	p, n := 4, 400
	lists := randomLists(rng, p, n)
	fr, _ := Fagin(lists, 10, 5)
	tr, _ := Threshold(lists, 10)
	nr, _ := Naive(lists, 10)
	if fr.Stats.SortedAccesses > p*n || tr.Stats.SortedAccesses > p*n {
		t.Fatal("sorted accesses exceed total rows")
	}
	if nr.Stats.RandomAccesses != p*n {
		t.Fatalf("naive should touch every cell: %d", nr.Stats.RandomAccesses)
	}
	if fr.Stats.Candidates == 0 || tr.Stats.Candidates == 0 {
		t.Fatal("candidate counts missing")
	}
}

func BenchmarkFagin(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	lists := randomLists(rng, 4, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fagin(lists, 10, 50); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkThreshold(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	lists := randomLists(rng, 4, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Threshold(lists, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNaive(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	lists := randomLists(rng, 4, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Naive(lists, 10); err != nil {
			b.Fatal(err)
		}
	}
}

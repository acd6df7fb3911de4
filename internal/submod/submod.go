// Package submod implements monotone submodular maximization under a
// cardinality constraint: the optimization core of VFPS-SM (§III-C of the
// paper). It provides the plain greedy algorithm with its 1−1/e guarantee,
// the lazy (Minoux) variant, stochastic greedy ("lazier than lazy greedy",
// the paper's reference [42]) and brute force for small ground sets, plus the
// facility-location objective f(S) = Σ_p max_{s∈S} w(p,s) that the paper
// proves normalized, monotone and submodular (Theorem 1).
package submod

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Objective is a set function over the ground set {0, …, N()−1}.
type Objective interface {
	// N is the size of the ground set.
	N() int
	// Value evaluates f(S) for the given member set. Implementations must
	// not retain or mutate the slice.
	Value(s []int) float64
}

// FacilityLocation is the KNN submodular function of the paper:
// f(S) = Σ_{p∈P} max_{s∈S} W[p][s], with f(∅) = 0.
type FacilityLocation struct {
	W [][]float64 // W[p][s] = w(p, s); square, size n×n
}

// NewFacilityLocation validates the similarity matrix and wraps it.
func NewFacilityLocation(w [][]float64) (*FacilityLocation, error) {
	n := len(w)
	if n == 0 {
		return nil, fmt.Errorf("submod: empty similarity matrix")
	}
	for i, row := range w {
		if len(row) != n {
			return nil, fmt.Errorf("submod: row %d has %d entries, want %d", i, len(row), n)
		}
		for j, v := range row {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("submod: invalid similarity W[%d][%d]=%g (must be finite and ≥ 0)", i, j, v)
			}
		}
	}
	return &FacilityLocation{W: w}, nil
}

// N returns the ground-set size.
func (f *FacilityLocation) N() int { return len(f.W) }

// Value computes f(S) = Σ_p max_{s∈S} W[p][s]; the empty set scores 0
// (normalization).
func (f *FacilityLocation) Value(s []int) float64 {
	if len(s) == 0 {
		return 0
	}
	var total float64
	for p := range f.W {
		best := math.Inf(-1)
		for _, v := range s {
			if w := f.W[p][v]; w > best {
				best = w
			}
		}
		total += best
	}
	return total
}

// Result reports a maximizer's outcome.
type Result struct {
	// Selected holds the chosen elements in selection order.
	Selected []int
	// Value is f(Selected).
	Value float64
	// Gains[i] is the marginal gain realised by the i-th selection.
	Gains []float64
	// Evaluations counts objective (or marginal-gain) evaluations, the unit
	// of selection cost.
	Evaluations int
}

func checkK(f Objective, k int) error {
	if k <= 0 {
		return fmt.Errorf("submod: k=%d must be positive", k)
	}
	if k > f.N() {
		return fmt.Errorf("submod: k=%d exceeds ground set size %d", k, f.N())
	}
	return nil
}

// gainTol is the relative rounding tolerance within which two marginal gains
// count as tied. Objective values are float sums whose order of addition
// depends on the candidate set — for facility location, f({0}) sums column
// 0 and f({2}) column 2 — so mathematically equal gains can differ in their
// last bits. Treating them as tied lets the smallest-id rule decide, as
// documented, instead of the rounding.
const gainTol = 1e-9

// beats reports whether element v with marginal gain g ranks ahead of
// element u with gain h: g exceeds h by more than gainTol (relative to the
// larger magnitude, and never less than gainTol absolute), or the two tie
// within it and v has the smaller id. Greedy, LazyGreedy and
// GreedyWarmStart all rank through it, so they agree on every tie.
func beats(g float64, v int, h float64, u int) bool {
	if math.Abs(g-h) <= gainTol*math.Max(1, math.Max(math.Abs(g), math.Abs(h))) {
		return v < u
	}
	return g > h
}

// Greedy runs the standard greedy algorithm (Algorithm 1 of the paper):
// starting from ∅, repeatedly add the element with maximum marginal gain,
// ties (within gainTol) broken by smallest element id.
func Greedy(f Objective, k int) (*Result, error) {
	if err := checkK(f, k); err != nil {
		return nil, err
	}
	n := f.N()
	selected := make([]int, 0, k)
	inSet := make([]bool, n)
	res := &Result{}
	cur := 0.0
	for len(selected) < k {
		bestV, bestGain := -1, 0.0
		for v := 0; v < n; v++ {
			if inSet[v] {
				continue
			}
			val := f.Value(append(selected, v))
			res.Evaluations++
			if gain := val - cur; bestV < 0 || beats(gain, v, bestGain, bestV) {
				bestGain, bestV = gain, v
			}
		}
		selected = append(selected, bestV)
		inSet[bestV] = true
		cur += bestGain
		res.Gains = append(res.Gains, bestGain)
	}
	res.Selected = selected
	res.Value = cur
	return res, nil
}

// gainItem is a lazy-greedy priority-queue entry: a cached upper bound on an
// element's marginal gain.
type gainItem struct {
	v     int
	bound float64
	round int // the selection round the bound was computed in
}

type gainHeap []gainItem

func (h gainHeap) Len() int               { return len(h) }
func (h gainHeap) Less(i, j int) bool     { return beats(h[i].bound, h[i].v, h[j].bound, h[j].v) }
func (h gainHeap) Swap(i, j int)          { h[i], h[j] = h[j], h[i] }
func (h *gainHeap) Push(x any)            { *h = append(*h, x.(gainItem)) }
func (h *gainHeap) Pop() any              { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h gainHeap) peek() gainItem         { return h[0] }
func (h *gainHeap) replaceTop(g gainItem) { (*h)[0] = g; heap.Fix(h, 0) }

// LazyGreedy runs Minoux's accelerated greedy. By submodularity, marginal
// gains only shrink as the set grows, so stale cached gains are valid upper
// bounds: an element whose refreshed gain still tops the heap is the true
// argmax without touching the rest. Returns results identical to Greedy
// (same tie-breaking) with far fewer evaluations.
func LazyGreedy(f Objective, k int) (*Result, error) {
	if err := checkK(f, k); err != nil {
		return nil, err
	}
	n := f.N()
	res := &Result{}
	selected := make([]int, 0, k)
	cur := 0.0
	h := make(gainHeap, 0, n)
	for v := 0; v < n; v++ {
		val := f.Value([]int{v})
		res.Evaluations++
		h = append(h, gainItem{v: v, bound: val, round: 0})
	}
	heap.Init(&h)
	for round := 1; len(selected) < k; round++ {
		for {
			top := h.peek()
			if top.round == round {
				heap.Pop(&h)
				selected = append(selected, top.v)
				cur += top.bound
				res.Gains = append(res.Gains, top.bound)
				break
			}
			val := f.Value(append(selected, top.v))
			res.Evaluations++
			h.replaceTop(gainItem{v: top.v, bound: val - cur, round: round})
		}
	}
	res.Selected = selected
	res.Value = cur
	return res, nil
}

// GreedyWarmStart runs lazy greedy seeded with a prior selection, for online
// selection under churn: at each round the pick the prior selection made at
// that position is re-evaluated first. An undisplaced pick is confirmed by
// that single hint evaluation (which substitutes for the refresh lazy greedy
// would spend on it anyway) plus only the bound-tightening refreshes lazy
// greedy itself requires; a displaced pick costs at most one extra
// evaluation. Total cost is therefore ≤ LazyGreedy + (#displaced picks),
// and = LazyGreedy when the prior survives intact. The output — selected
// set, order, gains and value — is identical to Greedy and LazyGreedy on the
// same objective (same smallest-id tie-breaking); the prior only steers which
// cached bounds are refreshed first, never the argmax. A stale prior (ids out
// of range, duplicates, wrong length) degrades gracefully to plain lazy
// greedy. An empty prior is exactly LazyGreedy.
func GreedyWarmStart(f Objective, k int, prior []int) (*Result, error) {
	if err := checkK(f, k); err != nil {
		return nil, err
	}
	n := f.N()
	res := &Result{}
	selected := make([]int, 0, k)
	inSet := make([]bool, n)
	cur := 0.0
	// bounds/stamp mirror the freshest heap entry per element so stale
	// duplicates (a warm hint re-pushes its element) are discarded on pop.
	bounds := make([]float64, n)
	stamp := make([]int, n)
	h := make(gainHeap, 0, n+k)
	for v := 0; v < n; v++ {
		val := f.Value([]int{v})
		res.Evaluations++
		bounds[v] = val
		h = append(h, gainItem{v: v, bound: val, round: 0})
	}
	heap.Init(&h)
	for round := 1; len(selected) < k; round++ {
		// Warm hint: refresh the prior pick for this position before
		// scanning. By submodularity every other cached bound is still a
		// valid upper bound, so if the refreshed hint tops the heap it is
		// the true argmax.
		if i := round - 1; i < len(prior) {
			if p := prior[i]; p >= 0 && p < n && !inSet[p] && stamp[p] != round {
				val := f.Value(append(selected, p))
				res.Evaluations++
				bounds[p] = val - cur
				stamp[p] = round
				heap.Push(&h, gainItem{v: p, bound: bounds[p], round: round})
			}
		}
		for {
			top := h.peek()
			if inSet[top.v] || top.bound != bounds[top.v] || (top.round == round) != (stamp[top.v] == round) {
				heap.Pop(&h) // stale duplicate of a hinted element
				continue
			}
			if top.round == round {
				heap.Pop(&h)
				selected = append(selected, top.v)
				inSet[top.v] = true
				cur += top.bound
				res.Gains = append(res.Gains, top.bound)
				break
			}
			val := f.Value(append(selected, top.v))
			res.Evaluations++
			bounds[top.v] = val - cur
			stamp[top.v] = round
			h.replaceTop(gainItem{v: top.v, bound: bounds[top.v], round: round})
		}
	}
	res.Selected = selected
	res.Value = cur
	return res, nil
}

// StochasticGreedy implements the "lazier than lazy greedy" algorithm: each
// round evaluates only a uniform random sample of size ⌈(n/k)·ln(1/eps)⌉,
// achieving a (1 − 1/e − eps) guarantee in expectation with O(n·ln(1/eps))
// total evaluations.
func StochasticGreedy(f Objective, k int, eps float64, rng *rand.Rand) (*Result, error) {
	if err := checkK(f, k); err != nil {
		return nil, err
	}
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("submod: eps=%g must be in (0,1)", eps)
	}
	if rng == nil {
		return nil, fmt.Errorf("submod: nil rng")
	}
	n := f.N()
	sample := int(math.Ceil(float64(n) / float64(k) * math.Log(1/eps)))
	if sample < 1 {
		sample = 1
	}
	res := &Result{}
	selected := make([]int, 0, k)
	inSet := make([]bool, n)
	remaining := make([]int, n)
	for i := range remaining {
		remaining[i] = i
	}
	cur := 0.0
	for len(selected) < k {
		// Sample without replacement from the remaining elements.
		m := len(remaining)
		s := sample
		if s > m {
			s = m
		}
		for i := 0; i < s; i++ {
			j := i + rng.Intn(m-i)
			remaining[i], remaining[j] = remaining[j], remaining[i]
		}
		bestV, bestGain := -1, math.Inf(-1)
		for _, v := range remaining[:s] {
			val := f.Value(append(selected, v))
			res.Evaluations++
			if gain := val - cur; gain > bestGain || (gain == bestGain && v < bestV) {
				bestGain, bestV = gain, v
			}
		}
		selected = append(selected, bestV)
		inSet[bestV] = true
		cur += bestGain
		res.Gains = append(res.Gains, bestGain)
		// Remove bestV from remaining.
		for i, v := range remaining {
			if v == bestV {
				remaining[i] = remaining[len(remaining)-1]
				remaining = remaining[:len(remaining)-1]
				break
			}
		}
	}
	res.Selected = selected
	res.Value = cur
	return res, nil
}

// BruteForce finds the exact optimum over all size-k subsets; exponential,
// for tests and approximation-ratio measurements only.
func BruteForce(f Objective, k int) (*Result, error) {
	if err := checkK(f, k); err != nil {
		return nil, err
	}
	n := f.N()
	if n > 24 {
		return nil, fmt.Errorf("submod: brute force limited to n ≤ 24, got %d", n)
	}
	res := &Result{Value: math.Inf(-1)}
	subset := make([]int, 0, k)
	var recurse func(start int)
	recurse = func(start int) {
		if len(subset) == k {
			val := f.Value(subset)
			res.Evaluations++
			if val > res.Value {
				res.Value = val
				res.Selected = append(res.Selected[:0], subset...)
			}
			return
		}
		// Prune: not enough elements left to fill the subset.
		for v := start; v <= n-(k-len(subset)); v++ {
			subset = append(subset, v)
			recurse(v + 1)
			subset = subset[:len(subset)-1]
		}
	}
	recurse(0)
	return res, nil
}

// IsMonotone samples random chains A ⊆ B and checks f(A) ≤ f(B) up to a
// small tolerance. Used by property tests and by callers validating custom
// objectives.
func IsMonotone(f Objective, trials int, rng *rand.Rand) bool {
	n := f.N()
	for t := 0; t < trials; t++ {
		a, b := randomChain(n, rng)
		if f.Value(a) > f.Value(b)+1e-9 {
			return false
		}
	}
	return true
}

// IsSubmodular samples random A ⊆ B and v ∉ B and checks the diminishing
// returns inequality f(A∪{v})−f(A) ≥ f(B∪{v})−f(B) up to a small tolerance.
func IsSubmodular(f Objective, trials int, rng *rand.Rand) bool {
	n := f.N()
	if n < 2 {
		return true
	}
	for t := 0; t < trials; t++ {
		a, b := randomChain(n, rng)
		outside := elementsOutside(n, b)
		if len(outside) == 0 {
			continue
		}
		v := outside[rng.Intn(len(outside))]
		gainA := f.Value(append(append([]int{}, a...), v)) - f.Value(a)
		gainB := f.Value(append(append([]int{}, b...), v)) - f.Value(b)
		if gainA < gainB-1e-9 {
			return false
		}
	}
	return true
}

// randomChain returns random sets a ⊆ b ⊆ {0..n-1} with |b| < n.
func randomChain(n int, rng *rand.Rand) (a, b []int) {
	perm := rng.Perm(n)
	bSize := rng.Intn(n) // 0..n-1, leaving at least one element outside
	aSize := 0
	if bSize > 0 {
		aSize = rng.Intn(bSize + 1)
	}
	b = append([]int{}, perm[:bSize]...)
	a = append([]int{}, b[:aSize]...)
	sort.Ints(a)
	sort.Ints(b)
	return a, b
}

func elementsOutside(n int, set []int) []int {
	in := make([]bool, n)
	for _, v := range set {
		in[v] = true
	}
	var out []int
	for v := 0; v < n; v++ {
		if !in[v] {
			out = append(out, v)
		}
	}
	return out
}

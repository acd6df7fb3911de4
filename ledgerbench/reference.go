package main

import (
	"fmt"
	"math"
	"sort"

	"vfps/internal/dataset"
)

// wTolerance bounds how far a protocol W entry may sit from the plaintext
// one. With identical neighbour sets the two differ only by float summation
// order; the 40-bit fixed-point encoding only decides which rows are
// neighbours.
const wTolerance = 1e-9

// reference is the paper's selection computed on plaintext, straight from
// the partition (§III): per-party squared distances, the joint K nearest
// neighbours, the similarity matrix W and greedy facility-location
// maximization. It shares no code with the protocol.
type reference struct {
	selected []int
	w        [][]float64
}

func referenceSelect(pt *dataset.Partition, queries []int, k, count int) reference {
	p := len(pt.Parties)
	n := pt.Parties[0].Rows
	w := make([][]float64, p)
	for i := range w {
		w[i] = make([]float64, p)
	}
	partial := make([][]float64, p)
	for i := range partial {
		partial[i] = make([]float64, n)
	}
	joint := make([]float64, n)
	order := make([]int, 0, n)
	for _, q := range queries {
		for i := range joint {
			joint[i] = 0
		}
		for pi, x := range pt.Parties {
			qRow := x.Row(q)
			for i := 0; i < n; i++ {
				var d float64
				for f, v := range x.Row(i) {
					diff := qRow[f] - v
					d += diff * diff
				}
				partial[pi][i] = d
				joint[i] += d
			}
		}
		order = order[:0]
		for i := 0; i < n; i++ {
			if i != q {
				order = append(order, i)
			}
		}
		sort.Slice(order, func(a, b int) bool {
			if joint[order[a]] != joint[order[b]] {
				return joint[order[a]] < joint[order[b]]
			}
			return order[a] < order[b]
		})
		sums := make([]float64, p)
		var dT float64
		for pi := range sums {
			for _, i := range order[:k] {
				sums[pi] += partial[pi][i]
			}
			dT += sums[pi]
		}
		for a := 0; a < p; a++ {
			for b := 0; b < p; b++ {
				if dT > 0 {
					w[a][b] += (dT - math.Abs(sums[a]-sums[b])) / dT
				} else {
					w[a][b]++
				}
			}
		}
	}
	for a := range w {
		for b := range w[a] {
			w[a][b] /= float64(len(queries))
		}
		w[a][a] = 1
	}
	return reference{selected: greedy(w, count), w: w}
}

// tieTolerance is how close two marginal gains must be to count as tied. A
// gain sums 2P terms that each move by at most wTolerance when W does. Ties
// are real: W is symmetric with unit diagonal, so when only rows a and b
// gain from adding a or b, gain(a) = gain(b) = 1 + W[a][b] − W[a][s] − W[b][s]
// exactly, and float rounding alone then decides which one a greedy picks.
func tieTolerance(p int) float64 { return 2 * float64(p) * wTolerance }

// gains returns each participant's marginal gain Σ_q max(W[q][v] − covered[q], 0)
// over the picks so far, and -Inf for participants already picked.
func gains(w [][]float64, covered []float64, in []bool) []float64 {
	g := make([]float64, len(w))
	for v := range w {
		if in[v] {
			g[v] = math.Inf(-1)
			continue
		}
		for q := range w {
			g[v] += max(w[q][v]-covered[q], 0)
		}
	}
	return g
}

// greedy maximizes f(S) = Σ_p max_{s∈S} W[p][s] by repeatedly adding the
// participant with the largest marginal gain; tied gains go to the smallest
// index.
func greedy(w [][]float64, count int) []int {
	covered := make([]float64, len(w))
	in := make([]bool, len(w))
	var picked []int
	for len(picked) < count {
		g := gains(w, covered, in)
		best := 0
		for v := range g {
			if g[v] > g[best]+tieTolerance(len(w)) {
				best = v
			}
		}
		picked = append(picked, best)
		in[best] = true
		for q := range w {
			covered[q] = max(covered[q], w[q][best])
		}
	}
	return picked
}

// check compares one protocol selection with the reference. W must match
// within wTolerance, and every pick must be one the paper's greedy can make:
// its gain on the reference W ties the best gain. tied reports that the
// selection differs from the reference's smallest-index tie-break.
func (r reference) check(selected []int, w [][]float64) (tied bool, err error) {
	if len(w) != len(r.w) {
		return false, fmt.Errorf("W has %d rows, reference %d", len(w), len(r.w))
	}
	for a := range w {
		for b := range w[a] {
			if d := math.Abs(w[a][b] - r.w[a][b]); !(d <= wTolerance) {
				return false, fmt.Errorf("W[%d][%d] = %.12f, reference %.12f", a, b, w[a][b], r.w[a][b])
			}
		}
	}
	if len(selected) != len(r.selected) {
		return false, fmt.Errorf("selected %v, plaintext reference selects %v", selected, r.selected)
	}
	covered := make([]float64, len(r.w))
	in := make([]bool, len(r.w))
	for _, v := range selected {
		if v < 0 || v >= len(r.w) || in[v] {
			return false, fmt.Errorf("selected %v is not a set of participants", selected)
		}
		g := gains(r.w, covered, in)
		best := math.Inf(-1)
		for _, x := range g {
			best = max(best, x)
		}
		if g[v] < best-tieTolerance(len(r.w)) {
			return false, fmt.Errorf("selected %v, plaintext reference selects %v", selected, r.selected)
		}
		in[v] = true
		for q := range r.w {
			covered[q] = max(covered[q], r.w[q][v])
		}
	}
	return fmt.Sprint(selected) != fmt.Sprint(r.selected), nil
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json this test
// holds the printed metrics to.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// tiny shrinks a workload to a shape that runs one selection in seconds.
func tiny(w shape) shape {
	w.keyBits = 512
	w.setupBuilds = 2
	w.queries = 4
	w.rows = 300
	return w
}

// TestWorkloadsShortMode runs every workload at a tiny shape, untraced and
// traced, and checks the printed metrics against BENCHMARK.json, the
// plaintext reference check and the traced-run identity.
func TestWorkloadsShortMode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, err := workloadByName(sw.Name)
		if err != nil {
			t.Fatal(err)
		}
		w = tiny(w)
		t.Run(w.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			res, err := runUntraced(ctx, w, 3, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res)
			for _, m := range spec.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
				if got.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
				}
			}
			if len(res.Metrics) != len(spec.EndToEnd) {
				t.Errorf("untraced run prints %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(spec.EndToEnd))
			}

			res, err = runTraced(ctx, w, 3, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res)
			for _, m := range spec.PerLayer {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if len(res.Metrics) != len(spec.PerLayer) {
				t.Errorf("traced run prints %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(spec.PerLayer))
			}
			if _, ok := res.Metrics["ledger.unattributed_frac"]; !ok {
				t.Error("traced run reports no ledger.unattributed_frac")
			}
			if calls := res.Metrics["transport.calls"].Value; calls <= 0 {
				t.Errorf("ledger matched %v calls to handlers, want > 0", calls)
			}
		})
	}
}

func checkResult(t *testing.T, res *result) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("run not correct: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
}

// TestReferenceCheck checks that the plaintext reference rejects a pick the
// paper's greedy cannot make and a W off by more than its tolerance, and
// accepts either side of an exact tie.
func TestReferenceCheck(t *testing.T) {
	w := tiny(workloads[0])
	in, err := makeInputs(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceSelect(in.pt, in.queries(0), w.k, w.selectCount)
	if tied, err := ref.check(ref.selected, ref.w); err != nil || tied {
		t.Fatalf("reference disagrees with itself: tied=%v err=%v", tied, err)
	}
	// The participant with the smallest first-step gain is never a greedy
	// first pick on this data.
	g := gains(ref.w, make([]float64, len(ref.w)), make([]bool, len(ref.w)))
	worst := 0
	for v := range g {
		if g[v] < g[worst] {
			worst = v
		}
	}
	if _, err := ref.check([]int{worst, ref.selected[0]}, ref.w); err == nil {
		t.Errorf("reference accepted %d as first pick, gains %v", worst, g)
	}
	off := make([][]float64, len(ref.w))
	for i := range off {
		off[i] = append([]float64(nil), ref.w[i]...)
	}
	off[0][1] += 1e-6
	if _, err := ref.check(ref.selected, off); err == nil {
		t.Error("reference accepted a W entry off by 1e-6")
	}

	// After picking 0, only rows 1 and 2 gain from adding 1 or 2, so both
	// gains equal 1 + W[1][2] - W[1][0] - W[2][0].
	tie := reference{w: [][]float64{
		{1, 0.5, 0.5, 0.9},
		{0.5, 1, 0.6, 0.3},
		{0.5, 0.6, 1, 0.3},
		{0.9, 0.3, 0.3, 1},
	}}
	tie.selected = greedy(tie.w, 2)
	if fmt.Sprint(tie.selected) != "[0 1]" {
		t.Fatalf("greedy = %v, want [0 1]", tie.selected)
	}
	if tied, err := tie.check([]int{0, 2}, tie.w); err != nil || !tied {
		t.Errorf("tied pick rejected or not reported: tied=%v err=%v", tied, err)
	}
}

// TestUnionLen checks the interval union the ledger's wait and span figures
// rest on.
func TestUnionLen(t *testing.T) {
	ivs := []interval{{0, 10}, {5, 15}, {20, 30}, {25, 26}}
	if got := unionLen(ivs, 0, 100); got != 25 {
		t.Errorf("union = %v, want 25", got)
	}
	if got := unionLen(ivs, 8, 22); got != 9 {
		t.Errorf("clipped union = %v, want 9", got)
	}
	if got := unionLen(nil, 0, 1); got != 0 {
		t.Errorf("empty union = %v, want 0", got)
	}
}

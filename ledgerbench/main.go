// Command ledgerbench times whole VFPS-SM selections at a realistic shape
// and attributes their wall clock to the layers of the system.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash ledgerbench/run.sh --workload fagin-he-inproc --seed 1 --seconds 30 --trace 0
//
// Each workload is a closed loop with one caller: the next selection starts
// when the previous one returns, over a fresh query set drawn from the seed.
// Every selection is checked against a plaintext reference of the paper's
// algorithm. --trace 0 prints the end-to-end metrics; --trace 1 runs each
// query set untraced and then traced, checks that both agree, and prints the
// per-layer ledger. The last line of standard output is one JSON object.
// See README.md for the workloads and what each metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"vfps/internal/vfl"
)

// shape is one workload's fixed configuration.
type shape struct {
	name        string
	dataset     string
	rows        int
	parties     int
	splitSeed   int64  // fixed: the split alone moves per-selection work by ±25%
	scheme      string // "paillier" or "secagg"
	keyBits     int
	pack        bool
	variant     vfl.Variant
	queries     int // query rows per selection
	k           int
	selectCount int
	tcp         bool
	setupBuilds int // consortium builds whose median is setup_s
}

var workloads = []shape{
	{name: "fagin-he-inproc", dataset: "Bank", rows: 2000, parties: 4, splitSeed: 1, scheme: "paillier", keyBits: 2048, pack: true,
		variant: vfl.VariantFagin, queries: 16, k: 10, selectCount: 2, setupBuilds: 11},
	{name: "threshold-he-tcp", dataset: "Bank", rows: 2000, parties: 4, splitSeed: 1, scheme: "paillier", keyBits: 2048, pack: true,
		variant: vfl.VariantThreshold, queries: 16, k: 10, selectCount: 2, tcp: true, setupBuilds: 7},
	{name: "base-secagg-tcp", dataset: "Credit", rows: 20000, parties: 8, splitSeed: 1, scheme: "secagg", keyBits: 2048,
		variant: vfl.VariantBase, queries: 32, k: 10, selectCount: 2, tcp: true, setupBuilds: 11},
}

func workloadByName(name string) (shape, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return shape{}, fmt.Errorf("unknown workload %q", name)
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed: draws every selection's query rows")
	seconds := flag.Float64("seconds", 20, "length of the timed closed loop")
	trace := flag.Int("trace", 0, "0 prints end-to-end metrics, 1 the per-layer ledger of a traced run")
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil {
		fail(err)
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1"))
	}
	run := runUntraced
	if *trace == 1 {
		run = runTraced
	}
	// The run deadline keeps a hung selection from holding the process: it
	// fails, counts as failed, and the loop stops.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*seconds*float64(time.Second))+150*time.Second)
	defer cancel()
	res, err := run(ctx, w, *seed, time.Duration(*seconds*float64(time.Second)))
	if err != nil {
		fail(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ledgerbench:", err)
	os.Exit(1)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ledgerbench: "+format+"\n", args...)
}

// mix derives the seed of stream i from the workload seed (splitmix64), so
// every selection's query rows are independent of the others'.
func mix(seed, i int64) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

func sampleRows(n, count int, seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)[:count]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// Command vfpsbench regenerates the paper's tables and figures on the
// synthetic dataset suite.
//
// Usage:
//
//	vfpsbench -exp all                 # everything, default scale
//	vfpsbench -exp table4 -rows 2000   # one experiment, bigger workload
//	vfpsbench -exp fig7 -datasets Phishing
//	vfpsbench -exp all -json out.json  # also write structured results
//
// Times are projected seconds under the calibrated cost model (see
// DESIGN.md); pass -full to use the paper's full learning-rate grid.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"vfps/internal/experiments"
	"vfps/internal/obs"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment: table1|table4|table5|fig4|fig5|fig6|fig7|fig8|fig9|exttopk|extscheme|extdp|extpruning|extbatch|parallel|packed|encrypt|payload|churn|all")
		rows      = flag.Int("rows", 800, "max instances per dataset")
		queries   = flag.Int("queries", 32, "KNN query samples for selection")
		k         = flag.Int("k", 10, "proxy-KNN neighbour count")
		parties   = flag.Int("parties", 4, "consortium size")
		selCount  = flag.Int("select", 2, "sub-consortium size")
		epochs    = flag.Int("epochs", 30, "max downstream training epochs")
		datasets  = flag.String("datasets", "", "comma-separated dataset subset (default all)")
		seed      = flag.Int64("seed", 1, "random seed")
		full      = flag.Bool("full", false, "use the paper's full learning-rate grid {0.001,0.01,0.1}")
		scaleRows = flag.Bool("scalerows", true, "size each dataset relative to its paper-scale row count")
		jsonPath  = flag.String("json", "", "also write structured results to this JSON file")
		withGBDT  = flag.Bool("gbdt", false, "add the GBDT extension model to the table4/table5 grids")
		repeats   = flag.Int("repeats", 1, "average the table4/table5 grids over this many seeded runs (paper: 5)")
		tracePath = flag.String("trace", "", "record protocol phase spans and write the trace report to this JSON file")
	)
	flag.Parse()

	// With -trace, install a process-default observer so every cluster the
	// experiments build (they do not set ClusterConfig.Obs themselves) records
	// phase spans and metrics into it.
	var observer *obs.Observer
	if *tracePath != "" {
		// Experiments run many selections; size the ring generously so early
		// phases are not evicted before the report is written.
		observer = obs.NewObserver(8 * obs.DefaultTraceCapacity)
		obs.SetDefault(observer)
	}

	opt := experiments.Options{
		Rows:        *rows,
		Queries:     *queries,
		K:           *k,
		Parties:     *parties,
		SelectCount: *selCount,
		MaxEpochs:   *epochs,
		Seed:        *seed,
		ScaleRows:   *scaleRows,
		IncludeGBDT: *withGBDT,
		Repeats:     *repeats,
		Out:         os.Stdout,
	}
	if *full {
		opt.LRGrid = []float64{0.001, 0.01, 0.1}
	}
	if *datasets != "" {
		opt.Datasets = strings.Split(*datasets, ",")
	}

	ctx := context.Background()
	runners := map[string]func(context.Context) (any, error){
		"table1":     func(ctx context.Context) (any, error) { return experiments.Table1(ctx, opt) },
		"table4":     func(ctx context.Context) (any, error) { return experiments.Grid(ctx, opt) },
		"table5":     func(ctx context.Context) (any, error) { return experiments.Grid(ctx, opt) },
		"fig4":       func(ctx context.Context) (any, error) { return experiments.Fig4(ctx, opt) },
		"fig5":       func(ctx context.Context) (any, error) { return experiments.Fig5(ctx, opt) },
		"fig6":       func(ctx context.Context) (any, error) { return experiments.Fig6(ctx, opt) },
		"fig7":       func(ctx context.Context) (any, error) { return experiments.Fig7(ctx, opt) },
		"fig8":       func(ctx context.Context) (any, error) { return experiments.Fig8(ctx, opt) },
		"fig9":       func(ctx context.Context) (any, error) { return experiments.Fig9(ctx, opt) },
		"exttopk":    func(ctx context.Context) (any, error) { return experiments.ExtTopk(ctx, opt) },
		"extscheme":  func(ctx context.Context) (any, error) { return experiments.ExtScheme(ctx, opt) },
		"extdp":      func(ctx context.Context) (any, error) { return experiments.ExtDP(ctx, opt) },
		"extpruning": func(ctx context.Context) (any, error) { return experiments.ExtPruning(ctx, opt) },
		"extbatch":   func(ctx context.Context) (any, error) { return experiments.ExtBatch(ctx, opt) },
		"parallel":   func(ctx context.Context) (any, error) { return experiments.Parallel(ctx, opt) },
		"packed":     func(ctx context.Context) (any, error) { return experiments.Packed(ctx, opt) },
		"encrypt":    func(ctx context.Context) (any, error) { return experiments.Encrypt(ctx, opt) },
		"payload":    func(ctx context.Context) (any, error) { return experiments.Payload(ctx, opt) },
		"churn":      func(ctx context.Context) (any, error) { return experiments.Churn(ctx, opt) },
	}
	// "parallel", "packed", "encrypt", "payload" and "churn" are
	// machine-dependent wall-clock benchmarks, so they are run explicitly
	// (-exp parallel / -exp packed / -exp encrypt / -exp payload /
	// -exp churn) rather than folded into -exp all.
	order := []string{"table1", "table4", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"exttopk", "extscheme", "extdp", "extpruning", "extbatch"}

	results := map[string]any{}
	start := time.Now()
	runOne := func(name string) {
		run, ok := runners[name]
		if !ok {
			fatal("unknown experiment %q", name)
		}
		// Each experiment runs under its own root span so the trace report's
		// top-level phases decompose the benchmark wall clock; the protocol
		// spans (select.similarity, vfl.query, ...) nest beneath it.
		rctx, sp := observer.Tracer().Start(ctx, "bench."+name)
		res, err := run(rctx)
		sp.End()
		if err != nil {
			fatal("%s: %v", name, err)
		}
		results[name] = res
	}
	if *exp == "all" {
		for _, name := range order {
			fmt.Printf("\n--- running %s ---\n", name)
			runOne(name)
		}
	} else {
		runOne(*exp)
	}
	wall := time.Since(start)

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fatal("creating %s: %v", *jsonPath, err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fatal("writing %s: %v", *jsonPath, err)
		}
		if err := f.Close(); err != nil {
			fatal("closing %s: %v", *jsonPath, err)
		}
		fmt.Printf("\nstructured results written to %s\n", *jsonPath)
	}

	if *tracePath != "" {
		report := observer.Tracer().Report()
		// Report().Phases covers only root spans; under parallelism the
		// per-query protocol spans (vfl.query, vfl.decrypt, agg.*) are
		// children of select.similarity, so summarize every span by name too
		// and collect the query IDs the run minted.
		spanSummary := obs.SummarizeSpans(report.Spans)
		qidSet := map[string]bool{}
		var queryIDs []string
		for _, s := range report.Spans {
			if qid := s.Labels["qid"]; qid != "" && !qidSet[qid] {
				qidSet[qid] = true
				queryIDs = append(queryIDs, qid)
			}
		}
		dump := struct {
			WallNs      int64                `json:"wallNs"`
			WallSecs    float64              `json:"wallSecs"`
			Trace       obs.TraceReport      `json:"trace"`
			SpanSummary []obs.PhaseSummary   `json:"spanSummary"`
			QueryIDs    []string             `json:"queryIDs,omitempty"`
			Metrics     []obs.FamilySnapshot `json:"metrics"`
		}{
			WallNs:      wall.Nanoseconds(),
			WallSecs:    wall.Seconds(),
			Trace:       report,
			SpanSummary: spanSummary,
			QueryIDs:    queryIDs,
			Metrics:     observer.Registry().Snapshot(),
		}
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal("creating %s: %v", *tracePath, err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(dump); err != nil {
			fatal("writing %s: %v", *tracePath, err)
		}
		if err := f.Close(); err != nil {
			fatal("closing %s: %v", *tracePath, err)
		}
		var phaseSecs float64
		for _, p := range dump.Trace.Phases {
			phaseSecs += p.TotalSecs
		}
		fmt.Printf("trace written to %s (%d spans, phases %.3fs of %.3fs wall)\n",
			*tracePath, len(dump.Trace.Spans), phaseSecs, wall.Seconds())
		for _, p := range spanSummary {
			fmt.Printf("  %-22s %6d spans %10.3fs\n", p.Name, p.Count, p.TotalSecs)
		}
		if len(queryIDs) > 0 {
			sample := queryIDs
			if len(sample) > 5 {
				sample = sample[:5]
			}
			fmt.Printf("  %d query IDs (e.g. %s)\n", len(queryIDs), strings.Join(sample, ", "))
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vfpsbench: "+format+"\n", args...)
	os.Exit(1)
}

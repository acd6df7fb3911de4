// Command vfpsnode runs one role of a distributed VFPS-SM deployment over
// TCP: the key server, the aggregation server, an aggregation shard worker,
// a participant, or the leader that drives selection. Every data-holding
// node generates its vertical slice of the (deterministic) synthetic dataset
// locally, so no data files need distributing.
//
// Sharded aggregation (DESIGN.md §15): start -shard-workers N aggworker
// processes (one per shard, -index 0..shards-1) plus the aggserver with the
// same -shard-workers value and aggworker/<i> directory entries; each worker
// reduces its party subtree and the aggserver merges the shard roots,
// bit-identically to the unsharded reduce.
//
// A five-node Bank deployment on one machine:
//
//	vfpsnode -role keyserver -addr 127.0.0.1:7001 &
//	vfpsnode -role party -index 0 -addr 127.0.0.1:7010 &
//	vfpsnode -role party -index 1 -addr 127.0.0.1:7011 &
//	vfpsnode -role party -index 2 -addr 127.0.0.1:7012 &
//	vfpsnode -role party -index 3 -addr 127.0.0.1:7013 &
//	vfpsnode -role aggserver -addr 127.0.0.1:7002 \
//	    -directory 'keyserver=127.0.0.1:7001,party/0=127.0.0.1:7010,party/1=127.0.0.1:7011,party/2=127.0.0.1:7012,party/3=127.0.0.1:7013' &
//	vfpsnode -role leader -select 2 \
//	    -directory 'keyserver=127.0.0.1:7001,aggserver=127.0.0.1:7002,party/0=127.0.0.1:7010,party/1=127.0.0.1:7011,party/2=127.0.0.1:7012,party/3=127.0.0.1:7013'
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"vfps/internal/costmodel"
	"vfps/internal/dataset"
	"vfps/internal/he"
	"vfps/internal/obs"
	"vfps/internal/transport"
	"vfps/internal/vfl"
)

// tuneScheme applies the -parallelism, -encrypt-window and -pack flags to an
// HE scheme; only Paillier has tunables. Parties that bulk-encrypt also get a
// randomizer pool unless the node is pinned fully serial. Packing must be set consistently on
// every participant and the leader (the aggregation server validates the pack
// factors it sees); maxAdds is the consortium size, matching the one-
// ciphertext-per-party aggregation tree.
func tuneScheme(s he.Scheme, parallelism, window int, pool, pack bool, maxAdds int) {
	p, ok := s.(*he.Paillier)
	if !ok {
		return
	}
	p.SetParallelism(parallelism)
	if pool && parallelism != 1 {
		p.SetEncryptWindow(window)
		p.StartRandomizerPool(4*p.Parallelism(), 1)
	}
	if pack {
		if err := p.EnablePacking(maxAdds); err != nil {
			fatal("enabling packing: %v", err)
		}
	}
}

func main() {
	var (
		role        = flag.String("role", "", "keyserver|aggserver|aggworker|party|leader")
		addr        = flag.String("addr", "127.0.0.1:0", "listen address (serving roles)")
		directory   = flag.String("directory", "", "comma-separated name=host:port peer directory")
		scheme      = flag.String("scheme", "paillier", "protection scheme: paillier|plain|secagg")
		keyBits     = flag.Int("keybits", 1024, "Paillier modulus bits")
		index       = flag.Int("index", 0, "participant index (role=party) or shard index (role=aggworker)")
		shardWkrs   = flag.Int("shard-workers", 0, "shard the ciphertext reduce across this many aggregation workers (roles aggserver/aggworker; 0 = unsharded)")
		ds          = flag.String("dataset", "Bank", "synthetic dataset name")
		rows        = flag.Int("rows", 800, "max dataset rows")
		parties     = flag.Int("parties", 4, "consortium size")
		splitSeed   = flag.Int64("splitseed", 1, "vertical split seed (must match across nodes)")
		shuffleSeed = flag.Int64("shuffleseed", 7, "pseudo-ID shuffle seed (must match across participants)")
		selCount    = flag.Int("select", 2, "sub-consortium size (role=leader)")
		k           = flag.Int("k", 10, "proxy-KNN neighbour count (role=leader)")
		queries     = flag.Int("queries", 32, "query sample count (role=leader)")
		batch       = flag.Int("batch", 32, "Fagin mini-batch size (role=leader)")
		variant     = flag.String("variant", "fagin", "KNN variant: fagin|base|threshold (role=leader)")
		parallelism = flag.Int("parallelism", 0, "HE pipeline concurrency (0 = VFPS_PARALLELISM or GOMAXPROCS, 1 = serial)")
		pack        = flag.Bool("pack", false, "slot-pack Paillier ciphertexts (set identically on all parties and the leader)")
		packAdapt   = flag.Bool("pack-adaptive", false, "renegotiate the packing slot width per round from observed magnitudes (role=leader; requires -pack)")
		chunkBytes  = flag.Int("chunk-bytes", 0, "split collection responses into ciphertext chunks of at most this many bytes (role=leader)")
		deltaCache  = flag.Bool("delta-cache", false, "cross-round delta encoding: repeat queries resend only changed ciphertext blocks (role=leader)")
		window      = flag.Int("encrypt-window", 0, "fixed-base window for randomizer precompute (0 = default 6, negative = classic uniform sampling)")
		obsAddr     = flag.String("obs-addr", "", "optional debug listen address serving /metrics, /v1/trace, /v1/slow and /debug/pprof")
		logJSON     = flag.String("log-json", "", `structured query-log destination: "-"/"stdout", "stderr", or a file path (off when empty)`)
		slowRing    = flag.Int("slow-ring", 0, "flight-recorder capacity for /v1/slow (0 = default)")
		rounds      = flag.Int("rounds", 1, "similarity rounds to run (role=leader); each round is one trace")
		qworkers    = flag.Int("qworkers", 1, "concurrent queries in flight per round (role=leader)")
		linger      = flag.Duration("linger", 0, "how long the leader keeps its obs listener up after finishing, for trace scrapes (role=leader)")
	)
	flag.Parse()

	dir, err := parseDirectory(*directory)
	if err != nil {
		fatal("%v", err)
	}
	ctx := context.Background()

	// Observability is opt-in: without -obs-addr or -log-json every
	// instrument stays a nil no-op. With either, this node's metrics, spans
	// and query log are live; -obs-addr additionally serves them on a
	// separate debug listener.
	var o *obs.Observer
	if *obsAddr != "" || *logJSON != "" {
		o = obs.NewObserver(obs.DefaultTraceCapacity)
		// Tag spans with this process's role so the cross-node span forest
		// shows which process each span ran in.
		nodeName := *role
		switch *role {
		case "party":
			nodeName = vfl.PartyName(*index)
		case "aggworker":
			nodeName = vfl.AggWorkerName(*index)
		}
		o.Trace.SetNode(nodeName)
		if *logJSON != "" || *slowRing > 0 {
			logw, closeLog, err := openLog(*logJSON)
			if err != nil {
				fatal("%v", err)
			}
			defer closeLog()
			o.Events = obs.NewQueryLog(logw, *slowRing)
		}
		obs.SetDefault(o)
		reg := o.Registry()
		transport.DeclareMetrics(reg)
		he.DeclareMetrics(reg)
		costmodel.DeclareMetrics(reg)
		obs.RegisterRuntimeMetrics(reg)
		if *obsAddr != "" {
			dbg := &http.Server{Addr: *obsAddr, Handler: o.Handler(), ReadHeaderTimeout: 5 * time.Second}
			go func() {
				fmt.Printf("observability endpoints on http://%s/metrics\n", *obsAddr)
				if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
					fmt.Fprintf(os.Stderr, "vfpsnode: obs listener: %v\n", err)
				}
			}()
		}
	}

	switch *role {
	case "keyserver":
		var ks *vfl.KeyServer
		if *scheme == "secagg" {
			ks, err = vfl.NewKeyServerSecAgg(*parties, *shuffleSeed^0x5eca66)
		} else {
			ks, err = vfl.NewKeyServer(*scheme, *keyBits)
		}
		if err != nil {
			fatal("%v", err)
		}
		serve(*addr, "key server", ks.Handler(), o)
	case "party":
		pt, _, err := localPartition(*ds, *rows, *parties, *splitSeed)
		if err != nil {
			fatal("%v", err)
		}
		if *index < 0 || *index >= pt.P() {
			fatal("party index %d out of range [0,%d)", *index, pt.P())
		}
		cli := transport.NewTCPClient(dir)
		defer cli.Close()
		cli.SetObserver(o)
		pub, err := vfl.FetchPublicSchemeWire(ctx, transport.NewCodecCaller(cli, nil), vfl.KeyServerName)
		if err != nil {
			fatal("fetching public key: %v", err)
		}
		tuneScheme(pub, *parallelism, *window, true, *pack, pt.P())
		observeScheme(pub, o, "party")
		part, err := vfl.NewParticipant(*index, pt.Parties[*index], pub, *shuffleSeed)
		if err != nil {
			fatal("%v", err)
		}
		part.SetParallelism(*parallelism)
		part.SetObserver(o, "node")
		serve(*addr, fmt.Sprintf("participant %d (%d features)", *index, part.Features()), part.Handler(), o)
	case "aggserver":
		cli := transport.NewTCPClient(dir)
		defer cli.Close()
		cli.SetObserver(o)
		pub, err := vfl.FetchPublicSchemeWire(ctx, transport.NewCodecCaller(cli, nil), vfl.KeyServerName)
		if err != nil {
			fatal("fetching public key: %v", err)
		}
		names := partyNames(dir)
		if len(names) == 0 {
			fatal("directory lists no party/<i> entries")
		}
		tuneScheme(pub, *parallelism, *window, false, false, 0) // agg only adds; packing config lives on parties and leader
		observeScheme(pub, o, "aggserver")
		agg, err := vfl.NewAggServer(cli, names, pub)
		if err != nil {
			fatal("%v", err)
		}
		agg.SetParallelism(*parallelism)
		agg.SetObserver(o, "node")
		if size, shards := vfl.PlanSubtrees(len(names), *shardWkrs); *shardWkrs >= 2 && shards >= 2 {
			plan := &vfl.ShardPlan{SubtreeSize: size}
			for wi := 0; wi < shards; wi++ {
				w := vfl.AggWorkerName(wi)
				if _, ok := dir[w]; !ok {
					fatal("-shard-workers %d needs %q in the directory", *shardWkrs, w)
				}
				plan.Workers = append(plan.Workers, w)
			}
			if err := agg.SetShardPlan(plan); err != nil {
				fatal("%v", err)
			}
			fmt.Printf("sharding the reduce over %d workers (subtree size %d)\n", shards, size)
		}
		serve(*addr, fmt.Sprintf("aggregation server (%d participants)", len(names)), agg.Handler(), o)
	case "aggworker":
		cli := transport.NewTCPClient(dir)
		defer cli.Close()
		cli.SetObserver(o)
		pub, err := vfl.FetchPublicSchemeWire(ctx, transport.NewCodecCaller(cli, nil), vfl.KeyServerName)
		if err != nil {
			fatal("fetching public key: %v", err)
		}
		names := partyNames(dir)
		if len(names) == 0 {
			fatal("directory lists no party/<i> entries")
		}
		size, shards := vfl.PlanSubtrees(len(names), *shardWkrs)
		if *shardWkrs < 2 || shards < 2 {
			fatal("role aggworker needs -shard-workers >= 2 (got %d over %d parties)", *shardWkrs, len(names))
		}
		if *index < 0 || *index >= shards {
			fatal("shard index %d out of range [0,%d)", *index, shards)
		}
		plan := &vfl.ShardPlan{SubtreeSize: size}
		lo, hi := plan.Range(*index, len(names))
		tuneScheme(pub, *parallelism, *window, false, false, 0) // workers only add, like the aggserver
		observeScheme(pub, o, "aggworker")
		wkr, err := vfl.NewAggServer(cli, names[lo:hi], pub)
		if err != nil {
			fatal("%v", err)
		}
		wkr.SetParallelism(*parallelism)
		wkr.SetRole(vfl.AggWorkerName(*index))
		wkr.SetObserver(o, "node")
		serve(*addr, fmt.Sprintf("aggregation worker %d (parties %d..%d)", *index, lo, hi-1), wkr.Handler(), o)
	case "leader":
		cli := transport.NewTCPClient(dir)
		defer cli.Close()
		cli.SetObserver(o)
		priv, err := vfl.FetchPrivateSchemeWire(ctx, transport.NewCodecCaller(cli, nil), vfl.KeyServerName)
		if err != nil {
			fatal("fetching private key: %v", err)
		}
		names := partyNames(dir)
		tuneScheme(priv, *parallelism, *window, false, *pack, len(names))
		observeScheme(priv, o, "leader")
		leader, err := vfl.NewLeader(cli, vfl.AggServerName, names, priv, *batch)
		if err != nil {
			fatal("%v", err)
		}
		leader.SetParallelism(*parallelism)
		leader.SetObserver(o, "node")
		leader.SetPayloadOptions(*packAdapt && *pack, *chunkBytes, *deltaCache)
		// Shard workers hold per-role op counters; fold them into the totals.
		leader.SetExtraCountNodes(aggWorkerNames(dir))
		runLeader(ctx, leader, o, *rows, *selCount, *k, *queries, vfl.Variant(*variant), *rounds, *qworkers)
		if *linger > 0 {
			fmt.Printf("lingering %s for trace scrapes...\n", *linger)
			time.Sleep(*linger)
		}
	default:
		fatal("unknown role %q (want keyserver|aggserver|party|leader)", *role)
	}
}

func runLeader(ctx context.Context, leader *vfl.Leader, o *obs.Observer, rows, selCount, k, queries int, variant vfl.Variant, rounds, qworkers int) {
	qs := sampleQueries(rows, queries)
	if rounds <= 0 {
		rounds = 1
	}
	if qworkers <= 0 {
		qworkers = 1
	}
	fmt.Printf("running %s-variant selection over %d queries, k=%d, %d round(s), %d worker(s)...\n",
		variant, len(qs), k, rounds, qworkers)
	var rep *vfl.SimilarityReport
	for r := 0; r < rounds; r++ {
		// Each round is one trace: the round's queries — and every remote
		// span they fan out — share a trace ID, so the collector's span
		// forest groups a round across processes.
		rctx := ctx
		var traceID obs.TraceID
		if o != nil {
			rctx, traceID = obs.ContextWithNewTrace(ctx)
		}
		start := time.Now()
		var err error
		rep, err = leader.Similarities(rctx, qs, k, variant, qworkers)
		if err != nil {
			fatal("similarity phase (round %d): %v", r, err)
		}
		line := fmt.Sprintf("round %d: %d queries in %.3fs", r, rep.Queries, time.Since(start).Seconds())
		if !traceID.IsZero() {
			line += " trace=" + traceID.String()
		}
		fmt.Println(line)
	}
	fmt.Println("participant similarity matrix:")
	for _, row := range rep.W {
		for _, v := range row {
			fmt.Printf("  %.4f", v)
		}
		fmt.Println()
	}
	selected, value, err := greedySelect(rep.W, selCount)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("selected participants: %v (objective %.4f)\n", selected, value)
	fmt.Printf("avg encrypted candidates per query: %.1f\n", rep.AvgCandidates)
	total, err := leader.TotalCounts(ctx)
	if err != nil {
		fatal("gathering counts: %v", err)
	}
	fmt.Printf("total ops: %s\n", total)
	fmt.Printf("projected selection time at paper-grade HE: %.2fs\n", costmodel.Default.Seconds(total))
}

func localPartition(name string, rows, parties int, splitSeed int64) (*dataset.Partition, *dataset.Dataset, error) {
	spec, err := dataset.SpecByName(name)
	if err != nil {
		return nil, nil, err
	}
	d, err := spec.Generate(rows)
	if err != nil {
		return nil, nil, err
	}
	pt, err := dataset.VerticalSplit(d, parties, splitSeed)
	if err != nil {
		return nil, nil, err
	}
	return pt, d, nil
}

// observeScheme installs HE op instrumentation when the node has an observer
// and the scheme supports it.
func observeScheme(s he.Scheme, o *obs.Observer, instance string) {
	if ob, ok := s.(he.Observable); ok {
		ob.SetObserver(o.Registry(), instance)
	}
}

func serve(addr, what string, h transport.Handler, o *obs.Observer) {
	srv, err := transport.ListenTCP(addr, h)
	if err != nil {
		fatal("%v", err)
	}
	srv.SetObserver(o)
	fmt.Printf("%s listening on %s\n", what, srv.Addr())
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	<-ch
	srv.Close()
}

func parseDirectory(s string) (map[string]string, error) {
	dir := map[string]string{}
	if s == "" {
		return dir, nil
	}
	for _, entry := range strings.Split(s, ",") {
		name, addr, ok := strings.Cut(strings.TrimSpace(entry), "=")
		if !ok {
			return nil, fmt.Errorf("bad directory entry %q (want name=host:port)", entry)
		}
		dir[name] = addr
	}
	return dir, nil
}

// partyNames extracts the party/<i> entries from the directory in index
// order.
func partyNames(dir map[string]string) []string {
	var names []string
	for i := 0; ; i++ {
		name := vfl.PartyName(i)
		if _, ok := dir[name]; !ok {
			return names
		}
		names = append(names, name)
	}
}

// aggWorkerNames extracts the aggworker/<i> entries from the directory in
// index order (empty for unsharded deployments).
func aggWorkerNames(dir map[string]string) []string {
	var names []string
	for i := 0; ; i++ {
		name := vfl.AggWorkerName(i)
		if _, ok := dir[name]; !ok {
			return names
		}
		names = append(names, name)
	}
}

func sampleQueries(n, count int) []int {
	if count > n {
		count = n
	}
	out := make([]int, count)
	for i := range out {
		out[i] = i * n / count
	}
	return out
}

// greedySelect runs Algorithm 1 directly on the similarity matrix (the
// leader-side selection step).
func greedySelect(w [][]float64, count int) ([]int, float64, error) {
	p := len(w)
	if count <= 0 || count > p {
		return nil, 0, fmt.Errorf("select count %d out of range [1,%d]", count, p)
	}
	selected := []int{}
	in := make([]bool, p)
	covered := make([]float64, p)
	var value float64
	for len(selected) < count {
		bestV, bestGain := -1, -1.0
		for v := 0; v < p; v++ {
			if in[v] {
				continue
			}
			var gain float64
			for q := 0; q < p; q++ {
				if w[q][v] > covered[q] {
					gain += w[q][v] - covered[q]
				}
			}
			if gain > bestGain {
				bestGain, bestV = gain, v
			}
		}
		in[bestV] = true
		selected = append(selected, bestV)
		for q := 0; q < p; q++ {
			if w[q][bestV] > covered[q] {
				covered[q] = w[q][bestV]
			}
		}
		value += bestGain
	}
	return selected, value, nil
}

// openLog resolves the -log-json destination. The returned close func is a
// no-op for the standard streams.
func openLog(dest string) (io.Writer, func(), error) {
	switch dest {
	case "":
		return nil, func() {}, nil
	case "-", "stdout":
		return os.Stdout, func() {}, nil
	case "stderr":
		return os.Stderr, func() {}, nil
	default:
		f, err := os.OpenFile(dest, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("opening query log %s: %w", dest, err)
		}
		return f, func() { f.Close() }, nil
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vfpsnode: "+format+"\n", args...)
	os.Exit(1)
}

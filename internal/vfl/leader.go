package vfl

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"vfps/internal/costmodel"
	"vfps/internal/he"
	"vfps/internal/obs"
	"vfps/internal/topk"
	"vfps/internal/transport"
	"vfps/internal/wire"
)

// Variant selects the vertical-KNN implementation.
type Variant string

const (
	// VariantBase encrypts and transmits all N partial distances per query
	// (VFPS-SM-BASE, §IV-A).
	VariantBase Variant = "base"
	// VariantFagin prunes the candidate set with Fagin's algorithm before
	// any encryption (VFPS-SM, §IV-B).
	VariantFagin Variant = "fagin"
	// VariantThreshold prunes with the Threshold Algorithm instead. TA
	// needs the *scores* at the scan frontier to compute its stopping bound
	// τ, which in the encrypted setting forces a leader round trip per scan
	// batch (aggregate-frontier decryptions). It sees fewer candidates than
	// Fagin but pays more rounds — the trade-off that §IV-B's choice of
	// Fagin avoids.
	VariantThreshold Variant = "threshold"
)

// Leader is the driver role: the label-holding participant that additionally
// owns the HE private key. It decrypts aggregated complete distances,
// determines the k nearest neighbours, and accumulates the pairwise
// participant similarities w(p,s) that feed submodular selection.
type Leader struct {
	roleObs
	roleCodec
	caller      transport.Caller
	cc          atomic.Pointer[transport.CodecCaller]
	agg         string
	parties     []string
	scheme      he.Scheme // full scheme (with private key)
	batch       int       // Fagin mini-batch size b
	counts      costmodel.Counts
	parallelism int      // 0 → par.Degree(); 1 → fully serial party fan-out
	instance    string   // observer instance label; the query log's tenant
	extraNodes  []string // additional accounting nodes (shard workers)

	// Payload-optimisation knobs requested from the aggregation server (see
	// SetPayloadOptions) and the receive half of the leader-link delta cache.
	padaptive  bool
	chunkBytes int
	delta      bool
	recvCache  deltaCache
}

// NewLeader wires the leader to the cluster. batch is the Fagin mini-batch
// size (paper's b); a non-positive value defaults to 32.
func NewLeader(caller transport.Caller, aggNode string, parties []string, scheme he.Scheme, batch int) (*Leader, error) {
	if caller == nil {
		return nil, fmt.Errorf("vfl: leader needs a transport")
	}
	if len(parties) == 0 {
		return nil, fmt.Errorf("vfl: leader needs participants")
	}
	if scheme == nil {
		return nil, fmt.Errorf("vfl: leader needs the private HE scheme")
	}
	if batch <= 0 {
		batch = 32
	}
	l := &Leader{caller: caller, agg: aggNode, parties: parties, scheme: scheme, batch: batch}
	l.cc.Store(transport.NewCodecCaller(caller, nil))
	return l, nil
}

// SetCodec sets the codec the leader speaks (wire.Binary by default).
func (l *Leader) SetCodec(c wire.Codec) {
	l.setCodec(c)
	l.cc.Store(transport.NewCodecCaller(l.caller, l.codec()))
}

// call performs one outbound RPC and charges the encoded request/response
// bytes to the leader's counters. The Messages counter stays
// responder-side, so round trips are not double-counted.
func (l *Leader) call(ctx context.Context, node, method string, req, resp wire.Message) error {
	stats, err := l.cc.Load().Invoke(ctx, node, method, req, resp)
	l.counts.Add(costmodel.Raw{BytesSent: stats.Payload, FramingBytes: stats.Framing})
	l.recordWire(stats.Codec, stats.Payload, stats.Framing)
	return err
}

// Counts exposes the leader's operation counters.
func (l *Leader) Counts() costmodel.Raw { return l.counts.Snapshot() }

// SetObserver installs metrics and tracing on the leader: per-query protocol
// spans, structured query-log events and cost-model gauges labelled
// {instance, role="leader"}. The instance doubles as the query log's tenant.
func (l *Leader) SetObserver(o *obs.Observer, instance string) {
	l.store(o)
	l.instance = instance
	l.counts.Register(o.Registry(), instance, "leader")
	DeclareDeltaMetrics(o.Registry())
}

// Instance returns the observer instance label ("" when observability is
// off); selection-level query-log events reuse it as the tenant.
func (l *Leader) Instance() string { return l.instance }

// SetParallelism pins the leader's party fan-out concurrency: 1 restores the
// serial loops, <= 0 restores the default degree. Vector decryption
// parallelism is governed by the HE scheme itself (he.Paillier.SetParallelism).
func (l *Leader) SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	l.parallelism = n
}

// P returns the number of participants.
func (l *Leader) P() int { return len(l.parties) }

// Parties returns a copy of the leader's participant roster in index order.
func (l *Leader) Parties() []string { return append([]string(nil), l.parties...) }

// SetParties replaces the roster after a membership change, without tearing
// the leader down. Not safe concurrently with an in-flight protocol run;
// callers fence membership changes with the consortium's run lock.
func (l *Leader) SetParties(parties []string) error {
	if len(parties) == 0 {
		return fmt.Errorf("vfl: leader needs participants")
	}
	l.parties = append([]string(nil), parties...)
	return nil
}

// SetPayloadOptions configures the ciphertext-payload optimisations the
// leader requests from the aggregation server: adaptive pack-width
// negotiation (effective only when the parties slot-pack), chunk framing of
// collection responses (chunkBytes > 0 splits packed vectors into
// ≤chunkBytes chunks the leader decrypts as a pipeline), and cross-round delta
// caching (repeat queries resend only changed ciphertext blocks). All three
// default to off, which keeps the wire image and the selections byte-
// identical to previous protocol versions.
func (l *Leader) SetPayloadOptions(adaptive bool, chunkBytes int, delta bool) {
	if chunkBytes < 0 {
		chunkBytes = 0
	}
	l.padaptive, l.chunkBytes, l.delta = adaptive, chunkBytes, delta
}

// QueryResult is the outcome of one vertical-KNN query.
type QueryResult struct {
	// Neighbors holds the pseudo IDs of the k nearest samples in ascending
	// complete-distance order.
	Neighbors []int
	// PartySums[p] is d^p_T, participant p's partial-distance sum over the
	// neighbour set.
	PartySums []float64
	// Fagin reports pruning statistics (zero for the base variant except
	// Candidates, which then equals N−1).
	Fagin FaginStats
}

// RunQuery executes the vertical KNN oracle for one query sample.
func (l *Leader) RunQuery(ctx context.Context, query, k int, variant Variant) (res *QueryResult, err error) {
	if k <= 0 {
		return nil, fmt.Errorf("vfl: k=%d must be positive", k)
	}
	o := l.Observer()
	qid := obs.QueryIDFromContext(ctx)
	if o != nil && qid == "" {
		// Mint a query ID at the outermost point it is missing, so every span
		// and every downstream RPC of this query carries the same handle.
		qid = obs.NewQueryID("q")
		ctx = obs.ContextWithQueryID(ctx, qid)
	}
	ctx, qsp := l.tracer().Start(ctx, SpanQuery)
	qsp.SetLabel("variant", string(variant))
	qsp.SetLabelInt("k", int64(k))
	if qid != "" {
		qsp.SetLabel("qid", qid)
	}
	defer qsp.End()
	// Per-query accounting: phase latencies accumulate into one structured
	// query-log event emitted on every exit path. All of it is gated on the
	// observer so the bare protocol path stays allocation-free.
	var phases []obs.PhaseSecs
	phase := func(name string, since time.Time) {
		if o != nil {
			phases = append(phases, obs.PhaseSecs{Name: name, Seconds: time.Since(since).Seconds()})
		}
	}
	var chunkCount int
	if o != nil {
		qstart := time.Now()
		defer func() {
			ev := obs.QueryEvent{
				Kind:    "query",
				ID:      qid,
				Tenant:  l.instance,
				Seconds: time.Since(qstart).Seconds(),
				Phases:  phases,
				Attrs:   map[string]any{"query": query, "k": k, "variant": string(variant)},
			}
			if sc, ok := qsp.Context(); ok {
				ev.Trace = sc.Trace.String()
			}
			if res != nil {
				ev.Attrs["candidates"] = res.Fagin.Candidates
				ev.Attrs["rounds"] = res.Fagin.Rounds
			}
			if chunkCount > 0 {
				ev.Attrs["chunks"] = chunkCount
			}
			if err != nil {
				ev.Attrs["error"] = err.Error()
			}
			o.Log().Record(ev)
		}()
	}
	var pids []int
	var col *collected
	var dist []float64
	var stats FaginStats
	collectStart := time.Now()
	switch variant {
	case VariantThreshold:
		var terr error
		pids, dist, stats, terr = l.thresholdScan(ctx, query, k)
		if terr != nil {
			return nil, terr
		}
	case VariantBase:
		var cerr error
		col, stats, cerr = l.collectBase(ctx, query)
		if cerr != nil {
			return nil, cerr
		}
		pids = col.pids
	case VariantFagin:
		var cerr error
		col, stats, cerr = l.collectFagin(ctx, query, k)
		if cerr != nil {
			return nil, cerr
		}
		pids = col.pids
	default:
		return nil, fmt.Errorf("vfl: unknown variant %q", variant)
	}
	if col != nil {
		chunkCount = len(col.chunks)
	}
	phase("collect", collectStart)
	if k > len(pids) {
		return nil, fmt.Errorf("vfl: k=%d exceeds %d candidates", k, len(pids))
	}

	// Decrypt complete distances for the candidates and take the k nearest
	// (the Threshold variant arrives pre-decrypted).
	if dist == nil {
		decStart := time.Now()
		dctx, dsp := l.tracer().Start(ctx, SpanDecrypt)
		dsp.SetLabelInt("n", int64(len(col.blobs)))
		dist, derr := l.decryptCollected(dctx, col)
		dsp.End()
		phase("decrypt", decStart)
		if derr != nil {
			return nil, fmt.Errorf("vfl: leader decrypting: %w", derr)
		}
		l.counts.Add(costmodel.Raw{Decryptions: int64(len(col.blobs))})
		return l.finishQuery(ctx, query, k, pids, dist, stats, phase)
	}
	return l.finishQuery(ctx, query, k, pids, dist, stats, phase)
}

// collected is one collection round's aggregate ciphertext vector after
// chunk reassembly and delta restoration, with the layout metadata the
// decrypt step validates.
type collected struct {
	pids   []int
	blobs  [][]byte   // flat, fully restored
	chunks [][][]byte // chunk views over blobs when the response was chunked
	factor int
	bits   int // adaptive slot width; 0 = static geometry
	adds   int // advertised aggregation depth (PackAdds)
}

// resolveCollected turns a collection response into a usable ciphertext
// vector: reassemble chunk framing, validate the packed length, and restore
// delta-withheld blocks from the receive cache. An ErrDeltaCacheMiss is
// returned typed so the caller can retry the call with NoCache.
func (l *Leader) resolveCollected(query int, pids []int, aggregated [][]byte, chunked [][][]byte, cachedBlocks []int, factor, bits, adds int, delta bool) (*collected, error) {
	factor = normFactor(factor)
	flat := aggregated
	var chunkLens []int
	if len(chunked) > 0 {
		f, err := wire.FlattenChunks(chunked)
		if err != nil {
			return nil, fmt.Errorf("vfl: reassembling chunked aggregates: %w", err)
		}
		flat = f
		chunkLens = make([]int, len(chunked))
		for i, c := range chunked {
			chunkLens[i] = len(c)
		}
	}
	if want := packedLen(len(pids), factor); len(flat) != want {
		return nil, fmt.Errorf("vfl: got %d aggregates for %d candidates, want %d", len(flat), len(pids), want)
	}
	if delta {
		keys := blockKeys("agg", query, bits, factor, pids)
		hits, err := l.recvCache.restore(keys, flat, cachedBlocks)
		if hits > 0 {
			l.counts.Add(costmodel.Raw{CacheHits: int64(hits)})
			l.recordDelta("leader", hits, 0)
		}
		if err != nil {
			return nil, err
		}
	} else if len(cachedBlocks) > 0 {
		return nil, fmt.Errorf("vfl: response withheld %d blocks without delta caching", len(cachedBlocks))
	}
	out := &collected{pids: pids, blobs: flat, factor: factor, bits: bits, adds: adds}
	if chunkLens != nil {
		// Rebuild the chunk views over the restored flat vector so the
		// pipelined decrypt sees complete blocks in wire-chunk granularity.
		out.chunks = make([][][]byte, len(chunkLens))
		pos := 0
		for i, n := range chunkLens {
			out.chunks[i] = flat[pos : pos+n]
			pos += n
		}
	}
	return out, nil
}

// deltaMissRetry reports whether err is a first-attempt delta-cache miss
// (the leader evicted a block the agg assumed cached) and charges the miss;
// the caller then retries the same call once with NoCache set.
func (l *Leader) deltaMissRetry(err error, attempt int) bool {
	if !errors.Is(err, ErrDeltaCacheMiss) || attempt != 0 {
		return false
	}
	l.counts.Add(costmodel.Raw{CacheMisses: 1})
	l.recordDelta("leader", 0, 1)
	return true
}

// collectBase performs the BASE variant's collection round trip, including
// the payload-knob negotiation and the NoCache retry after a delta miss.
func (l *Leader) collectBase(ctx context.Context, query int) (*collected, FaginStats, error) {
	req := &CollectAllReq{Query: query, ChunkBytes: l.chunkBytes, Adaptive: l.padaptive, Delta: l.delta}
	for attempt := 0; ; attempt++ {
		var resp CollectAllResp
		if err := l.call(ctx, l.agg, MethodCollectAll, req, &resp); err != nil {
			return nil, FaginStats{}, err
		}
		col, err := l.resolveCollected(query, resp.PseudoIDs, resp.Aggregated, resp.Chunked,
			resp.CachedBlocks, resp.PackFactor, resp.PackBits, resp.PackAdds, l.delta)
		if err != nil {
			if l.deltaMissRetry(err, attempt) {
				req.NoCache = true
				continue
			}
			return nil, FaginStats{}, err
		}
		n := len(col.pids)
		return col, FaginStats{Candidates: n, Rounds: 1, ScanDepth: n}, nil
	}
}

// collectFagin performs the Fagin variant's collection round trip; see
// collectBase for the retry semantics.
func (l *Leader) collectFagin(ctx context.Context, query, k int) (*collected, FaginStats, error) {
	req := &FaginCollectReq{Query: query, K: k, Batch: l.batch,
		ChunkBytes: l.chunkBytes, Adaptive: l.padaptive, Delta: l.delta}
	for attempt := 0; ; attempt++ {
		var resp FaginCollectResp
		if err := l.call(ctx, l.agg, MethodFaginCollect, req, &resp); err != nil {
			return nil, FaginStats{}, err
		}
		col, err := l.resolveCollected(query, resp.PseudoIDs, resp.Aggregated, resp.Chunked,
			resp.CachedBlocks, resp.PackFactor, resp.PackBits, resp.PackAdds, l.delta)
		if err != nil {
			if l.deltaMissRetry(err, attempt) {
				req.NoCache = true
				continue
			}
			return nil, FaginStats{}, err
		}
		return col, resp.Stats, nil
	}
}

// decryptCollected recovers the aggregate distances of one collection round.
// factor 1 is the classic one-value-per-ciphertext layout; factor > 1 means
// the parties slot-packed, so every ciphertext is a per-slot sum over all
// parties. A static layout (bits == 0) must match the leader's own
// EnablePacking geometry; an adaptive layout is validated by rebuilding the
// (bits, adds) geometry through PackerFor, whose typed fixed.ErrPackAdds /
// fixed.ErrPackShape errors are the hard backstop against a peer advertising
// an aggregation depth the key cannot honour. Chunked vectors stream through
// DecryptPackedChunks, overlapping parse and decrypt per wire chunk. The
// decoded values are bit-identical to the scalar whole-blob path — packing
// and chunking change the carrier layout, not the fixed-point arithmetic —
// so selection results do not depend on any payload knob.
func (l *Leader) decryptCollected(ctx context.Context, col *collected) ([]float64, error) {
	if col.factor == 1 {
		return he.DecryptVec(ctx, l.scheme, col.blobs)
	}
	pp, ok := l.scheme.(*he.Paillier)
	if !ok {
		return nil, fmt.Errorf("vfl: packed aggregates under non-paillier scheme %q", l.scheme.Name())
	}
	count := len(col.pids)
	if col.bits == 0 {
		if lf := pp.PackFactor(); lf != col.factor {
			return nil, fmt.Errorf("vfl: aggregates packed %d-wide but the leader's geometry is %d-wide — inconsistent packing configuration", col.factor, lf)
		}
		if len(col.chunks) > 0 {
			return pp.DecryptPackedChunks(ctx, col.chunks, count, nil, len(l.parties))
		}
		return pp.DecryptPacked(ctx, col.blobs, count, len(l.parties))
	}
	packer, err := pp.PackerFor(uint(col.bits), col.adds)
	if err != nil {
		return nil, fmt.Errorf("vfl: rejecting advertised pack geometry: %w", err)
	}
	if packer.Slots() != col.factor {
		return nil, fmt.Errorf("vfl: advertised pack factor %d does not match geometry (V=%d, adds=%d → S=%d) — inconsistent packing configuration",
			col.factor, col.bits, col.adds, packer.Slots())
	}
	if len(col.chunks) > 0 {
		return pp.DecryptPackedChunks(ctx, col.chunks, count, packer, col.adds)
	}
	return pp.DecryptPackedWith(ctx, col.blobs, count, packer, col.adds)
}

// finishQuery ranks the decrypted candidate distances and gathers the
// parties' plaintext partial sums over the neighbour set (Step ⑦),
// fanning the NeighborSum requests out concurrently. phase records the
// neighbour-sum latency into the caller's query-log event.
func (l *Leader) finishQuery(ctx context.Context, query, k int, pids []int, dist []float64, stats FaginStats, phase func(string, time.Time)) (*QueryResult, error) {
	order := topk.KSmallest(dist, k)
	neighbors := make([]int, k)
	for i, idx := range order {
		neighbors[i] = pids[idx]
	}

	sumStart := time.Now()
	nctx, nsp := l.tracer().Start(ctx, SpanNeighborSums)
	ctx = nctx
	sums := make([]float64, len(l.parties))
	err := l.fanOut(ctx, func(pi int, party string) error {
		var resp NeighborSumResp
		if err := l.call(ctx, party, MethodNeighborSum,
			&NeighborSumReq{Query: query, PseudoIDs: neighbors}, &resp); err != nil {
			return fmt.Errorf("vfl: neighbour sum from %s: %w", party, err)
		}
		sums[pi] = resp.Sum
		return nil
	})
	nsp.End()
	phase("sums", sumStart)
	if err != nil {
		return nil, err
	}
	return &QueryResult{Neighbors: neighbors, PartySums: sums, Fagin: stats}, nil
}

// fanOut runs fn once per party, concurrently unless parallelism is pinned
// to 1, with indexed result slots and lowest-index error precedence (the
// same semantics as the serial loop).
func (l *Leader) fanOut(ctx context.Context, fn func(pi int, party string) error) error {
	if l.parallelism == 1 {
		for pi, party := range l.parties {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(pi, party); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(l.parties))
	var wg sync.WaitGroup
	for pi, party := range l.parties {
		wg.Add(1)
		go func(pi int, party string) {
			defer wg.Done()
			if err := ctx.Err(); err != nil {
				errs[pi] = err
				return
			}
			errs[pi] = fn(pi, party)
		}(pi, party)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// taRound runs one threshold-scan round at the given depth: synchronized
// sorted access over every party, then aggregate-and-decrypt for the
// candidates not yet in seen, which it adds to seen. exhausted reports that
// every party's ranking has run out.
func (l *Leader) taRound(ctx context.Context, query, depth int, seen map[int]bool) (newIDs []int, dist []float64, exhausted bool, err error) {
	// Sorted access: next batch of every party's ranking, all parties in
	// flight concurrently; merge in party order for determinism.
	batches := make([][]int, len(l.parties))
	err = l.fanOut(ctx, func(pi int, party string) error {
		var resp RankingBatchResp
		if err := l.call(ctx, party, MethodRankingBatch,
			&RankingBatchReq{Query: query, Offset: depth, Count: l.batch}, &resp); err != nil {
			return fmt.Errorf("vfl: TA ranking from %s: %w", party, err)
		}
		batches[pi] = resp.PseudoIDs
		return nil
	})
	if err != nil {
		return nil, nil, false, err
	}
	exhausted = true
	for _, batch := range batches {
		if len(batch) > 0 {
			exhausted = false
		}
		for _, pid := range batch { // a pid may surface in several parties' batches
			if !seen[pid] {
				seen[pid] = true
				newIDs = append(newIDs, pid)
			}
		}
	}
	if len(newIDs) == 0 {
		return nil, nil, exhausted, nil
	}

	// Random access: aggregated ciphertexts for the new candidates.
	req := &AggregateCandidatesReq{Query: query, PseudoIDs: newIDs, Adaptive: l.padaptive, Delta: l.delta}
	var col *collected
	for attempt := 0; ; attempt++ {
		var resp AggregateCandidatesResp
		if err := l.call(ctx, l.agg, MethodAggregateCandidates, req, &resp); err != nil {
			return nil, nil, false, err
		}
		var rerr error
		col, rerr = l.resolveCollected(query, newIDs, resp.Aggregated, nil,
			resp.CachedBlocks, resp.PackFactor, resp.PackBits, resp.PackAdds, l.delta)
		if rerr != nil {
			if l.deltaMissRetry(rerr, attempt) {
				req.NoCache = true
				continue
			}
			return nil, nil, false, fmt.Errorf("vfl: TA aggregate round: %w", rerr)
		}
		break
	}
	dist, err = l.decryptCollected(ctx, col)
	if err != nil {
		return nil, nil, false, fmt.Errorf("vfl: TA decrypting candidate: %w", err)
	}
	l.counts.Add(costmodel.Raw{Decryptions: int64(len(col.blobs))})
	return newIDs, dist, exhausted, nil
}

// thresholdScan drives the leader-assisted Threshold Algorithm for one
// query: synchronized sorted access in batches, aggregate-and-decrypt for
// every newly seen candidate, and an encrypted frontier bound τ per batch.
// Returns the candidate pseudo IDs with their decrypted complete distances.
func (l *Leader) thresholdScan(ctx context.Context, query, k int) ([]int, []float64, FaginStats, error) {
	ctx, tsp := l.tracer().Start(ctx, SpanTAScan)
	defer tsp.End()
	var stats FaginStats
	seen := make(map[int]bool)
	var pids []int
	var dist []float64
	depth := 0
	for {
		if err := ctx.Err(); err != nil {
			return nil, nil, stats, err
		}
		newIDs, newDist, exhausted, err := l.taRound(ctx, query, depth, seen)
		if err != nil {
			return nil, nil, stats, err
		}
		stats.Rounds++
		depth += l.batch
		pids = append(pids, newIDs...)
		dist = append(dist, newDist...)
		if exhausted {
			break
		}

		// Threshold: τ bounds every unseen instance's complete distance from
		// below, because unseen instances rank deeper than the frontier in
		// every list.
		var fresp AggregateFrontierResp
		if err := l.call(ctx, l.agg, MethodAggregateFrontier,
			&AggregateFrontierReq{Query: query, Rank: depth - 1}, &fresp); err != nil {
			return nil, nil, stats, err
		}
		tau, err := l.scheme.Decrypt(fresp.Cipher)
		if err != nil {
			return nil, nil, stats, fmt.Errorf("vfl: TA decrypting threshold: %w", err)
		}
		l.counts.Add(costmodel.Raw{Decryptions: 1})
		if len(dist) >= k {
			order := topk.KSmallest(dist, k)
			if dist[order[k-1]] <= tau {
				break
			}
		}
	}
	stats.ScanDepth = depth
	stats.Candidates = len(pids)
	if len(pids) < k {
		return nil, nil, stats, fmt.Errorf("vfl: TA terminated with %d candidates for k=%d", len(pids), k)
	}
	return pids, dist, stats, nil
}

// SimilarityReport is the output of a full selection-phase protocol run.
type SimilarityReport struct {
	// W[p][s] is the average similarity w(p,s) over the query set, the input
	// to submodular maximization. W is symmetric with unit diagonal.
	W [][]float64
	// Queries is the number of query samples processed.
	Queries int
	// AvgCandidates is the mean per-query number of instances whose partial
	// distances were encrypted and communicated — the Fig. 9 metric.
	AvgCandidates float64
	// TotalRounds accumulates Fagin mini-batch rounds across queries.
	TotalRounds int
}

// SimAccumulator incrementally aggregates per-query similarity
// contributions, enabling adaptive protocols (core.SelectAdaptive) that add
// query batches until the estimate stabilises.
type SimAccumulator struct {
	p      int
	sums   [][]float64
	n      int
	cands  int
	rounds int
}

// NewAccumulator returns an empty similarity accumulator for this
// consortium.
func (l *Leader) NewAccumulator() *SimAccumulator {
	p := len(l.parties)
	sums := make([][]float64, p)
	for i := range sums {
		sums[i] = make([]float64, p)
	}
	return &SimAccumulator{p: p, sums: sums}
}

// Queries returns the number of query samples accumulated so far.
func (a *SimAccumulator) Queries() int { return a.n }

// add folds one query result into the accumulator.
func (a *SimAccumulator) add(res *QueryResult) {
	a.cands += res.Fagin.Candidates
	a.rounds += res.Fagin.Rounds
	var dT float64
	for _, s := range res.PartySums {
		dT += s
	}
	for i := 0; i < a.p; i++ {
		for j := 0; j < a.p; j++ {
			var w float64
			if dT <= 0 {
				// All neighbours coincide with the query on every party:
				// no divergence information, treat parties as identical.
				w = 1
			} else {
				w = (dT - math.Abs(res.PartySums[i]-res.PartySums[j])) / dT
			}
			a.sums[i][j] += w
		}
	}
	a.n++
}

// Report materialises the current similarity estimate.
func (a *SimAccumulator) Report() *SimilarityReport {
	w := make([][]float64, a.p)
	for i := range w {
		w[i] = make([]float64, a.p)
		for j := range w[i] {
			w[i][j] = a.sums[i][j] / float64(a.n)
		}
		w[i][i] = 1
	}
	return &SimilarityReport{
		W:             w,
		Queries:       a.n,
		AvgCandidates: float64(a.cands) / float64(a.n),
		TotalRounds:   a.rounds,
	}
}

// Accumulate runs the KNN oracle over additional queries and folds them into
// acc, with up to `workers` queries in flight.
func (l *Leader) Accumulate(ctx context.Context, queries []int, k int, variant Variant, workers int, acc *SimAccumulator) error {
	results, err := l.runQueries(ctx, queries, k, variant, workers)
	if err != nil {
		return err
	}
	for _, res := range results {
		acc.add(res)
	}
	l.counts.Add(costmodel.Raw{PlainAdds: int64(len(queries) * acc.p * acc.p)})
	return nil
}

// Similarities runs the KNN oracle over the query set and accumulates the
// pairwise participant similarity matrix of §III-A:
//
//	w_q(p1,p2) = (d_T − |d^p1_T − d^p2_T|) / d_T,   w = mean over queries.
//
// Up to `workers` queries run concurrently (≤ 1 is sequential). Results are
// accumulated in query order, so the report is bit-identical at every
// worker count.
func (l *Leader) Similarities(ctx context.Context, queries []int, k int, variant Variant, workers int) (*SimilarityReport, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("vfl: empty query set")
	}
	acc := l.NewAccumulator()
	if err := l.Accumulate(ctx, queries, k, variant, workers, acc); err != nil {
		return nil, err
	}
	return acc.Report(), nil
}

// runQueries executes the KNN oracle for every query, optionally in
// parallel, preserving query order in the results.
func (l *Leader) runQueries(ctx context.Context, queries []int, k int, variant Variant, workers int) ([]*QueryResult, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("vfl: empty query set")
	}
	if workers <= 0 {
		workers = 1
	}
	if workers > len(queries) {
		workers = len(queries)
	}
	results := make([]*QueryResult, len(queries))
	if workers == 1 {
		for qi, q := range queries {
			res, err := l.RunQuery(ctx, q, k, variant)
			if err != nil {
				return nil, fmt.Errorf("vfl: query %d: %w", q, err)
			}
			results[qi] = res
		}
	} else {
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		var wg sync.WaitGroup
		var errOnce sync.Once
		var firstErr error
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for qi := range next {
					res, err := l.RunQuery(ctx, queries[qi], k, variant)
					if err != nil {
						errOnce.Do(func() {
							firstErr = fmt.Errorf("vfl: query %d: %w", queries[qi], err)
							cancel()
						})
						return
					}
					results[qi] = res
				}
			}()
		}
	feed:
		for qi := range queries {
			select {
			case next <- qi:
			case <-ctx.Done():
				break feed
			}
		}
		close(next)
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}
		// Cancellation can stop the feed before any worker reports an error,
		// leaving gaps; surface that instead of returning partial results.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, r := range results {
			if r == nil {
				return nil, fmt.Errorf("vfl: query processing incomplete")
			}
		}
	}

	return results, nil
}

// SetExtraCountNodes registers additional accounting nodes — the shard
// workers of a sharded deployment — so GatherCounts/ResetAllCounts cover the
// HE additions that moved off the aggregation server. Nil clears the list.
func (l *Leader) SetExtraCountNodes(nodes []string) {
	l.extraNodes = append([]string(nil), nodes...)
}

// countNodes lists every remote node that carries operation counters.
func (l *Leader) countNodes() []string {
	nodes := append([]string{l.agg}, l.extraNodes...)
	return append(nodes, l.parties...)
}

// GatherCounts pulls operation counters from every node plus the leader's
// own, keyed by node name ("leader" for the local counters).
func (l *Leader) GatherCounts(ctx context.Context) (map[string]costmodel.Raw, error) {
	// Meta-calls go through Invoke directly so gathering counters does not
	// itself perturb the byte counters being gathered.
	out := map[string]costmodel.Raw{"leader": l.counts.Snapshot()}
	for _, node := range l.countNodes() {
		var resp CountsResp
		if _, err := l.cc.Load().Invoke(ctx, node, MethodCounts, nil, &resp); err != nil {
			return nil, fmt.Errorf("vfl: counts from %s: %w", node, err)
		}
		out[node] = resp.Counts
	}
	return out, nil
}

// TotalCounts sums GatherCounts over all roles.
func (l *Leader) TotalCounts(ctx context.Context) (costmodel.Raw, error) {
	per, err := l.GatherCounts(ctx)
	if err != nil {
		return costmodel.Raw{}, err
	}
	var total costmodel.Raw
	for _, r := range per {
		total = total.Plus(r)
	}
	return total, nil
}

// ResetAllCounts zeroes the counters on every node including the leader.
func (l *Leader) ResetAllCounts(ctx context.Context) error {
	l.counts.Reset()
	for _, node := range l.countNodes() {
		if _, err := l.cc.Load().Invoke(ctx, node, MethodResetCounts, nil, nil); err != nil {
			return fmt.Errorf("vfl: resetting %s: %w", node, err)
		}
	}
	return nil
}

// Scheme exposes the leader's HE scheme (used by integration tests).
func (l *Leader) Scheme() he.Scheme { return l.scheme }

package vfl

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"vfps/internal/costmodel"
	"vfps/internal/fixed"
	"vfps/internal/he"
	"vfps/internal/mat"
	"vfps/internal/obs"
	"vfps/internal/par"
	"vfps/internal/transport"
	"vfps/internal/wire"
)

// PartyName returns the canonical node name of participant p.
func PartyName(p int) string { return fmt.Sprintf("party/%d", p) }

// Participant is one data-holding organisation: it owns a vertical slice of
// the feature space for all N instances and serves partial-distance queries.
// All participants share the shuffle seed, so they agree on the pseudo-ID
// permutation without the servers ever learning it (identity security,
// §IV-C).
type Participant struct {
	roleObs
	roleCodec
	index  int
	x      *mat.Matrix // N × F_p local features
	scheme he.Scheme

	perm []int // original id -> pseudo id
	inv  []int // pseudo id -> original id

	counts      costmodel.Counts
	parallelism int // 0 → par.Degree(); 1 → fully serial encryption

	// deltaSent caches ciphertext blocks sent to the aggregator, keyed by
	// block identity; a hit reuses the cached bytes (skipping re-encryption)
	// and withholds the block from the wire. Sound because partial distances
	// are a pure function of (query, pseudo ID) over the static dataset.
	deltaSent deltaCache

	mu         sync.Mutex
	cache      map[int]*queryCache
	cacheOrder []int // FIFO eviction order
}

// cacheLimit bounds the per-participant query cache so concurrent query
// processing does not retain every query's distance vector.
const cacheLimit = 32

// queryCache holds the per-query artefacts that several protocol steps
// reuse: partial distances by original id and the ascending sub-ranking of
// pseudo IDs.
type queryCache struct {
	query     int
	dist      []float64 // by original id; query itself = +Inf sentinel, excluded from ranking
	sortedPid []int     // pseudo ids in ascending distance order (query excluded)
}

// NewParticipant constructs participant p over its local features.
// shuffleSeed must be identical across all participants of a consortium.
func NewParticipant(index int, x *mat.Matrix, scheme he.Scheme, shuffleSeed int64) (*Participant, error) {
	if x == nil || x.Rows == 0 || x.Cols == 0 {
		return nil, fmt.Errorf("vfl: participant %d has no data", index)
	}
	if scheme == nil {
		return nil, fmt.Errorf("vfl: participant %d has no HE scheme", index)
	}
	// Index-bound schemes are distributed as unbound templates; bind them so
	// pairwise masks take the right sign (secagg) or noise streams are
	// independent across participants (dp).
	switch s := scheme.(type) {
	case *he.SecAgg:
		bound, err := s.WithIndex(index)
		if err != nil {
			return nil, fmt.Errorf("vfl: participant %d: %w", index, err)
		}
		scheme = bound
	case *he.DP:
		bound, err := s.WithIndex(index)
		if err != nil {
			return nil, fmt.Errorf("vfl: participant %d: %w", index, err)
		}
		scheme = bound
	}
	n := x.Rows
	perm := rand.New(rand.NewSource(shuffleSeed)).Perm(n)
	inv := make([]int, n)
	for orig, pid := range perm {
		inv[pid] = orig
	}
	return &Participant{
		index:  index,
		x:      x,
		scheme: scheme,
		perm:   perm,
		inv:    inv,
		cache:  make(map[int]*queryCache),
	}, nil
}

// N returns the instance count.
func (p *Participant) N() int { return p.x.Rows }

// Features returns the local feature dimension F_p.
func (p *Participant) Features() int { return p.x.Cols }

// Counts exposes the participant's operation counters.
func (p *Participant) Counts() costmodel.Raw { return p.counts.Snapshot() }

// SetObserver installs metrics and tracing on the participant: distance and
// encryption spans plus cost-model gauges labelled {instance, role="party/i"}.
func (p *Participant) SetObserver(o *obs.Observer, instance string) {
	p.store(o)
	p.counts.Register(o.Registry(), instance, PartyName(p.index))
}

// SetCodec sets the codec the participant speaks (wire.Binary by default).
func (p *Participant) SetCodec(c wire.Codec) { p.setCodec(c) }

// SetParallelism pins the participant's encryption concurrency: 1 restores
// the serial loop, <= 0 restores the default degree.
func (p *Participant) SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	p.parallelism = n
}

// encryptValue protects one protocol value, using item-bound masking when
// the scheme requires it (SecAgg) and plain HE encryption otherwise.
func (p *Participant) encryptValue(domain byte, query, key int, v float64) ([]byte, error) {
	if cs, ok := p.scheme.(he.Contextual); ok {
		return cs.EncryptAt(domain, query, key, v)
	}
	return p.scheme.Encrypt(v)
}

// partEnc is the outcome of one encryption sweep: the wire vector (delta-
// withheld blocks as empty placeholders), the pack factor, the adaptive slot
// width actually used (0 = static geometry), the advertised magnitude bound
// for the next negotiation round, the withheld block indices, and how many
// ciphertexts were actually produced (cache hits skip the exponentiation).
type partEnc struct {
	ciphers   [][]byte
	factor    int
	packBits  int
	needBits  int
	cached    []int
	encrypted int
}

// encryptItems protects a vector of item-keyed protocol values. Contextual
// (mask-based) schemes are pure functions of (domain, query, key, value), so
// their items parallelise over the worker pool; a pack-enabled Paillier
// scheme slot-packs values per ciphertext — under the static EnablePacking
// geometry, or the dictated packBits-wide adaptive geometry when every local
// value fits it (otherwise it falls back to static and lets the advertised
// NeedBits lift the next round's negotiation); everything else goes through
// the scheme's own vector path (he.EncryptVec). With delta set, blocks whose
// bytes were already sent for this (query, geometry, pseudo-ID segment) are
// withheld from the wire and reported in cached; noCache forces a full
// resend after a receiver-side eviction. ctx is polled per chunk so a dead
// client stops the encryption sweep early.
func (p *Participant) encryptItems(ctx context.Context, query int, pids []int, vals []float64, packBits int, delta, noCache bool) (partEnc, error) {
	ctx, esp := p.tracer().Start(ctx, SpanEncrypt)
	esp.SetLabelInt("n", int64(len(pids)))
	defer esp.End()
	if cs, ok := p.scheme.(he.Contextual); ok {
		// Item-bound masks change per round by construction; neither adaptive
		// packing nor delta caching applies.
		out := make([][]byte, len(pids))
		err := par.For(ctx, len(pids), p.parallelism, func(i int) error {
			c, err := cs.EncryptAt(he.DomainItem, query, pids[i], vals[i])
			if err != nil {
				return err
			}
			out[i] = c
			return nil
		})
		if err != nil {
			return partEnc{}, err
		}
		return partEnc{ciphers: out, factor: 1, encrypted: len(out)}, nil
	}

	var packer *fixed.Packer
	var usedBits, needBits int
	pp, isPaillier := p.scheme.(*he.Paillier)
	if isPaillier && pp.PackFactor() > 1 {
		packer = pp.Packer()
		nb, err := pp.NeededPackBits(vals)
		if err != nil {
			return partEnc{}, err
		}
		needBits = int(nb)
		if packBits > 0 && needBits <= packBits {
			ap, err := pp.PackerFor(uint(packBits), pp.MaxPackAdds())
			if err != nil {
				return partEnc{}, err
			}
			packer, usedBits = ap, packBits
		}
	}
	factor := 1
	if packer != nil {
		factor = packer.Slots()
		esp.SetLabelInt("pack", int64(factor))
	}

	blocks := packedLen(len(vals), factor)
	var keys []string
	if delta {
		keys = blockKeys("agg", query, usedBits, factor, pids)
	}
	blobs := make([][]byte, blocks)
	var cachedIdx, encBlocks []int
	var encVals []float64
	for b := 0; b < blocks; b++ {
		if delta && !noCache {
			if blob, ok := p.deltaSent.get(keys[b]); ok {
				// Reuse the cached ciphertext bytes: encryption is randomized,
				// so re-encrypting would produce different bytes the receiver
				// cannot match. The reuse also skips the exponentiation.
				blobs[b] = blob
				cachedIdx = append(cachedIdx, b)
				continue
			}
		}
		encBlocks = append(encBlocks, b)
		lo := b * factor
		encVals = append(encVals, vals[lo:min(lo+factor, len(vals))]...)
	}
	if len(encBlocks) > 0 {
		var cs [][]byte
		var err error
		if packer != nil {
			// Concatenating uncached blocks keeps packing valid: only the
			// globally last block can be partial, and it is encrypted last.
			cs, err = pp.EncryptPackedWith(ctx, packer, encVals)
		} else {
			cs, err = he.EncryptVec(ctx, p.scheme, encVals)
		}
		if err != nil {
			return partEnc{}, err
		}
		if len(cs) != len(encBlocks) {
			return partEnc{}, fmt.Errorf("vfl: party %d packed %d blocks, want %d", p.index, len(cs), len(encBlocks))
		}
		for i, b := range encBlocks {
			blobs[b] = cs[i]
			if delta {
				p.deltaSent.put(keys[b], cs[i])
			}
		}
		// The burst just drained up to len(cs) pooled randomizers; hint the
		// pool to refill through the idle gap while the leader aggregates, so
		// the next round's encryptions hit the precomputed fast path again.
		he.Hint(p.scheme, len(cs))
	}
	out := blobs
	if len(cachedIdx) > 0 {
		// The wire copy carries empty placeholders for withheld blocks; blobs
		// keeps the full vector so the cache refresh above stays intact.
		out = make([][]byte, blocks)
		copy(out, blobs)
		for _, b := range cachedIdx {
			out[b] = nil
		}
	}
	return partEnc{
		ciphers:   out,
		factor:    factor,
		packBits:  usedBits,
		needBits:  needBits,
		cached:    cachedIdx,
		encrypted: len(encBlocks),
	}, nil
}

// distances returns the cached per-query artefacts, computing them on first
// use. The query itself is excluded from the ranking (a KNN query drawn from
// the dataset is its own 0-distance neighbour).
func (p *Participant) distances(ctx context.Context, query int) (*queryCache, error) {
	if query < 0 || query >= p.N() {
		return nil, fmt.Errorf("vfl: query %d out of range [0,%d)", query, p.N())
	}
	p.mu.Lock()
	if qc, ok := p.cache[query]; ok {
		p.mu.Unlock()
		return qc, nil
	}
	p.mu.Unlock()
	// Compute outside the lock so concurrent queries for different samples
	// proceed in parallel; a rare duplicate computation is harmless.
	_, dsp := p.tracer().Start(ctx, SpanDistances)
	dsp.SetLabelInt("party", int64(p.index))
	defer dsp.End()
	n := p.N()
	qRow := p.x.Row(query)
	dist := make([]float64, n)
	for i := 0; i < n; i++ {
		if i == query {
			continue
		}
		dist[i] = mat.SqDist(qRow, p.x.Row(i))
	}
	p.counts.Add(costmodel.Raw{DistanceFlops: int64((n - 1) * p.x.Cols)})
	ranking := make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		if i != query {
			ranking = append(ranking, i)
		}
	}
	sort.Slice(ranking, func(a, b int) bool {
		i, j := ranking[a], ranking[b]
		if dist[i] != dist[j] {
			return dist[i] < dist[j]
		}
		// Tie-break on pseudo id so all parties and the servers see a
		// consistent order without leaking original ids.
		return p.perm[i] < p.perm[j]
	})
	pids := make([]int, len(ranking))
	for r, orig := range ranking {
		pids[r] = p.perm[orig]
	}
	qc := &queryCache{query: query, dist: dist, sortedPid: pids}
	p.mu.Lock()
	defer p.mu.Unlock()
	if existing, ok := p.cache[query]; ok {
		return existing, nil // another goroutine won the race
	}
	if len(p.cacheOrder) >= cacheLimit {
		oldest := p.cacheOrder[0]
		p.cacheOrder = p.cacheOrder[1:]
		delete(p.cache, oldest)
	}
	p.cache[query] = qc
	p.cacheOrder = append(p.cacheOrder, query)
	return qc, nil
}

// Handler returns the participant's RPC handler.
func (p *Participant) Handler() transport.Handler {
	return func(ctx context.Context, method string, req []byte) ([]byte, error) {
		codec, err := p.reqCodec(req)
		if err != nil {
			return nil, err
		}
		switch method {
		case MethodRankingBatch:
			var r RankingBatchReq
			if err := codec.Unmarshal(req, &r); err != nil {
				return nil, err
			}
			return p.rankingBatch(ctx, codec, r)
		case MethodEncryptAll:
			var r EncryptAllReq
			if err := codec.Unmarshal(req, &r); err != nil {
				return nil, err
			}
			return p.encryptAll(ctx, codec, r)
		case MethodEncryptCandidates:
			var r EncryptCandidatesReq
			if err := codec.Unmarshal(req, &r); err != nil {
				return nil, err
			}
			return p.encryptCandidates(ctx, codec, r)
		case MethodEncryptRankScore:
			var r EncryptRankScoreReq
			if err := codec.Unmarshal(req, &r); err != nil {
				return nil, err
			}
			return p.encryptRankScore(ctx, codec, r)
		case MethodNeighborSum:
			var r NeighborSumReq
			if err := codec.Unmarshal(req, &r); err != nil {
				return nil, err
			}
			return p.neighborSum(ctx, codec, r)
		case MethodCounts:
			return codec.Marshal(&CountsResp{Counts: p.counts.Snapshot()})
		case MethodResetCounts:
			p.counts.Reset()
			return nil, nil
		default:
			return nil, fmt.Errorf("%w: %s", transport.ErrUnknownMethod, method)
		}
	}
}

func (p *Participant) rankingBatch(ctx context.Context, codec wire.Codec, r RankingBatchReq) ([]byte, error) {
	if r.Count <= 0 {
		return nil, fmt.Errorf("vfl: ranking batch count %d must be positive", r.Count)
	}
	qc, err := p.distances(ctx, r.Query)
	if err != nil {
		return nil, err
	}
	if r.Offset < 0 || r.Offset > len(qc.sortedPid) {
		return nil, fmt.Errorf("vfl: ranking offset %d out of range", r.Offset)
	}
	end := r.Offset + r.Count
	if end > len(qc.sortedPid) {
		end = len(qc.sortedPid)
	}
	batch := qc.sortedPid[r.Offset:end]
	return reply(codec, &RankingBatchResp{PseudoIDs: batch}, &p.counts, &p.roleObs,
		costmodel.Raw{ItemsSent: int64(len(batch)), Messages: 1})
}

func (p *Participant) encryptAll(ctx context.Context, codec wire.Codec, r EncryptAllReq) ([]byte, error) {
	qc, err := p.distances(ctx, r.Query)
	if err != nil {
		return nil, err
	}
	n := p.N()
	queryPid := p.perm[r.Query]
	pids := make([]int, 0, n-1)
	vals := make([]float64, 0, n-1)
	for pid := 0; pid < n; pid++ {
		if pid == queryPid {
			continue
		}
		pids = append(pids, pid)
		vals = append(vals, qc.dist[p.inv[pid]])
	}
	enc, err := p.encryptItems(ctx, r.Query, pids, vals, r.PackBits, r.Delta, r.NoCache)
	if err != nil {
		return nil, fmt.Errorf("vfl: party %d encrypting: %w", p.index, err)
	}
	// Counters reflect actual work and wire traffic: packing drops the
	// exponentiation and ciphertext counts by the pack factor, delta hits skip
	// both the exponentiation and the wire, and reply charges the bytes as
	// actually encoded.
	return reply(codec, &EncryptAllResp{
		PseudoIDs: pids, Ciphers: enc.ciphers, PackFactor: enc.factor,
		PackBits: enc.packBits, NeedBits: enc.needBits, CachedBlocks: enc.cached,
	}, &p.counts, &p.roleObs, costmodel.Raw{
		Encryptions: int64(enc.encrypted),
		ItemsSent:   int64(len(enc.ciphers) - len(enc.cached)),
		Messages:    1,
	})
}

func (p *Participant) encryptCandidates(ctx context.Context, codec wire.Codec, r EncryptCandidatesReq) ([]byte, error) {
	qc, err := p.distances(ctx, r.Query)
	if err != nil {
		return nil, err
	}
	queryPid := p.perm[r.Query]
	vals := make([]float64, len(r.PseudoIDs))
	for i, pid := range r.PseudoIDs {
		if pid < 0 || pid >= p.N() || pid == queryPid {
			return nil, fmt.Errorf("vfl: candidate pseudo id %d invalid", pid)
		}
		vals[i] = qc.dist[p.inv[pid]]
	}
	enc, err := p.encryptItems(ctx, r.Query, r.PseudoIDs, vals, r.PackBits, r.Delta, r.NoCache)
	if err != nil {
		return nil, fmt.Errorf("vfl: party %d encrypting candidate: %w", p.index, err)
	}
	return reply(codec, &EncryptCandidatesResp{
		Ciphers: enc.ciphers, PackFactor: enc.factor,
		PackBits: enc.packBits, NeedBits: enc.needBits, CachedBlocks: enc.cached,
	}, &p.counts, &p.roleObs, costmodel.Raw{
		Encryptions: int64(enc.encrypted),
		ItemsSent:   int64(len(enc.ciphers) - len(enc.cached)),
		Messages:    1,
	})
}

func (p *Participant) encryptRankScore(ctx context.Context, codec wire.Codec, r EncryptRankScoreReq) ([]byte, error) {
	qc, err := p.distances(ctx, r.Query)
	if err != nil {
		return nil, err
	}
	if r.Rank < 0 {
		return nil, fmt.Errorf("vfl: rank %d must be non-negative", r.Rank)
	}
	rank := r.Rank
	if rank >= len(qc.sortedPid) {
		rank = len(qc.sortedPid) - 1
	}
	// The mask key is the *requested* rank: every party is asked the same
	// rank in a TA round, so their masks cancel at aggregation even when the
	// effective rank was clamped.
	c, err := p.encryptValue(he.DomainRank, r.Query, r.Rank, qc.dist[p.inv[qc.sortedPid[rank]]])
	if err != nil {
		return nil, fmt.Errorf("vfl: party %d encrypting frontier: %w", p.index, err)
	}
	he.Hint(p.scheme, 1) // TA rounds repeat; keep the pool topped up between them
	return reply(codec, &EncryptRankScoreResp{Cipher: c}, &p.counts, &p.roleObs,
		costmodel.Raw{Encryptions: 1, ItemsSent: 1, Messages: 1})
}

func (p *Participant) neighborSum(ctx context.Context, codec wire.Codec, r NeighborSumReq) ([]byte, error) {
	qc, err := p.distances(ctx, r.Query)
	if err != nil {
		return nil, err
	}
	queryPid := p.perm[r.Query]
	var sum float64
	for _, pid := range r.PseudoIDs {
		if pid < 0 || pid >= p.N() || pid == queryPid {
			return nil, fmt.Errorf("vfl: neighbour pseudo id %d invalid", pid)
		}
		sum += qc.dist[p.inv[pid]]
	}
	return reply(codec, &NeighborSumResp{Sum: sum}, &p.counts, &p.roleObs,
		costmodel.Raw{PlainAdds: int64(len(r.PseudoIDs)), ItemsSent: 1, Messages: 1})
}

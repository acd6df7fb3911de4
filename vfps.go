// Package vfps is a Go implementation of VFPS-SM, the participant-selection
// framework for vertical federated learning from "Hounding Data Diversity:
// Towards Participant Selection in Vertical Federated Learning" (ICDE 2025).
//
// Given a consortium of participants that each hold a vertical slice of a
// shared dataset's feature space, the library selects the sub-consortium
// that maximises a KNN-driven data-likelihood objective. The objective is
// submodular, so greedy selection carries a 1−1/e guarantee and naturally
// rewards feature diversity: near-duplicate participants are never chosen
// together. The selection protocol runs under additively homomorphic
// encryption and uses Fagin's top-k algorithm to prune the number of
// encrypted partial distances from N per query down to a small candidate
// set.
//
// Quickstart:
//
//	d, _ := vfps.GenerateDataset("Bank", 2000)
//	part, _ := vfps.VerticalSplit(d, 4, 1)
//	cons, _ := vfps.NewConsortium(ctx, vfps.Config{
//		Partition: part, Labels: d.Y, Classes: d.Classes,
//	})
//	sel, _ := cons.Select(ctx, 2, vfps.SelectOptions{})
//	fmt.Println(sel.Selected)
//
// The baselines evaluated in the paper (RANDOM, SHAPLEY, VF-MINE) are
// available through SelectWith, and downstream KNN/LR/MLP models through
// Evaluate, so end-to-end comparisons can be reproduced directly.
package vfps

import (
	"context"
	"fmt"
	"sync"
	"time"

	"vfps/internal/baselines"
	"vfps/internal/core"
	"vfps/internal/costmodel"
	"vfps/internal/dataset"
	"vfps/internal/he"
	"vfps/internal/mat"
	"vfps/internal/obs"
	"vfps/internal/vfl"
)

// PoolSet is a cluster-lifetime registry of Paillier randomizer pools shared
// across consortiums (and across rounds of one): precomputed randomizers
// survive the gaps between protocol phases instead of each consortium paying
// pool warm-up again. Pass one via Config.SharedPool; the caller owns Close.
type PoolSet = he.PoolSet

// NewPoolSet builds a shared randomizer pool registry; buffer and workers
// size each per-key pool (<= 0 select the defaults: buffer 64, one worker).
func NewPoolSet(buffer, workers int) *PoolSet { return he.NewPoolSet(buffer, workers) }

// Re-exported data types: the dataset layer is part of the public surface.
type (
	// Dataset is a labelled classification dataset.
	Dataset = dataset.Dataset
	// Partition is a vertical split of a dataset across participants.
	Partition = dataset.Partition
	// Selection reports a VFPS-SM run: the chosen participants, objective
	// value, similarity matrix, and full cost accounting.
	Selection = core.Selection
	// CostCounts is a snapshot of primitive-operation counts.
	CostCounts = costmodel.Raw
)

// Method identifies a participant-selection strategy.
type Method string

// The selection strategies evaluated in the paper.
const (
	MethodVFPS     Method = "vfps-sm"      // this library's contribution
	MethodVFPSBase Method = "vfps-sm-base" // without Fagin pruning
	MethodRandom   Method = "random"
	MethodShapley  Method = "shapley"
	MethodVFMine   Method = "vfmine"
)

// Config wires a consortium.
type Config struct {
	// Partition holds each participant's local features (one row set shared
	// by all participants).
	Partition *Partition
	// Labels are the instance labels held by the leader participant.
	Labels []int
	// Classes is the number of label classes.
	Classes int
	// Scheme selects the protection backend: "paillier" for real additive
	// HE, "secagg" for SMC-style pairwise masking (exact aggregates, no
	// public-key operations, but requires that no two parties collude with
	// the server), "dp" for noise-based differential privacy (cheapest, but
	// perturbs the selection — see DPEpsilon), or "plain" (default) for the
	// op-count-preserving HE simulation used by benchmark sweeps.
	Scheme string
	// DPEpsilon and DPDelta tune the "dp" scheme's per-release privacy
	// (defaults 1.0 and 1e-5).
	DPEpsilon, DPDelta float64
	// KeyBits sizes the Paillier modulus (default 512 here; use ≥ 2048 in
	// adversarial deployments).
	KeyBits int
	// ShuffleSeed seeds the shared pseudo-ID permutation (identity
	// security); any fixed value shared by the consortium works.
	ShuffleSeed int64
	// FaginBatch is the mini-batch size b for ranked-list streaming
	// (default 32).
	FaginBatch int
	// Parallelism pins the HE pipeline's concurrency on every role (party
	// fan-out, worker-pool encryption/decryption, randomizer precompute):
	// 1 forces fully serial execution, 0 uses the default degree
	// (VFPS_PARALLELISM or GOMAXPROCS). Selection results are identical at
	// every setting; only wall-clock time changes.
	Parallelism int
	// Pack enables Paillier slot packing: several fixed-point partial
	// distances travel in each ciphertext, dividing encryption count,
	// decryption count and bytes on the wire by the pack factor. Selection
	// results are bit-identical with packing on or off. Ignored by the other
	// schemes.
	Pack bool
	// PackAdaptive lets the aggregation server renegotiate the packing slot
	// width per round from the magnitude bounds the parties advertise,
	// packing more values per ciphertext than the static worst-case geometry
	// whenever the data allows. Requires Pack; selections stay bit-identical.
	PackAdaptive bool
	// ChunkBytes > 0 splits collection responses into ≤ChunkBytes ciphertext
	// chunks, letting the leader pipeline chunk decryption.
	ChunkBytes int
	// DeltaCache enables cross-round delta encoding: repeat queries resend
	// only the ciphertext blocks that changed since the previous round.
	DeltaCache bool
	// ShardWorkers ≥ 2 shards the ciphertext tree reduce across that many
	// aggregation workers over aligned power-of-two party subtrees.
	// Selections are bit-identical at every worker count.
	ShardWorkers int
	// PackWidthHint seeds the adaptive pack negotiation with a slot width a
	// previous consortium learned over the same data shape, so round one
	// packs adaptively instead of paying the static warm-up. Only meaningful
	// with Pack+PackAdaptive; 0 keeps pure in-band negotiation.
	PackWidthHint int
	// EncryptWindow pins the fixed-base window width used by encryption
	// randomizer precompute: 0 keeps the default (6), negative restores
	// classic uniform-r sampling (one full modular exponentiation per
	// randomizer; see SECURITY.md on the subgroup-sampling trade-off).
	// Selection results are bit-identical at every setting.
	EncryptWindow int
	// SharedPool, when non-nil, attaches this consortium's encrypting roles
	// to a cluster-lifetime PoolSet shared with other consortiums instead of
	// starting private pools. The caller owns the set's lifecycle
	// (PoolSet.Close); closing the consortium leaves the shared pools
	// running.
	SharedPool *PoolSet
	// Wire names the protocol codec. The compact versioned binary format of
	// internal/wire is the only one: "" and "binary" select it, anything
	// else is an error.
	Wire string
	// SimCache memoises similarity reports by (roster, query set, variant, K)
	// across this consortium's selections: a selection whose membership and
	// parameters recur skips the encrypted similarity phase entirely. Exact —
	// the replayed W is the one a fresh run would compute — but opt-in, since
	// it short-circuits the per-run cost profile benchmarks measure.
	SimCache bool
	// Obs installs metrics and tracing on every role of the consortium. Nil
	// falls back to the process default observer (obs.SetDefault); when that
	// is also unset, observability stays disabled at no measurable cost.
	Obs *obs.Observer
	// Instance labels the consortium's metric series when several
	// consortiums share one registry (default "local").
	Instance string
}

// Consortium is a wired VFL deployment ready to run participant selection
// and downstream training.
type Consortium struct {
	cluster *vfl.Cluster
	pt      *Partition
	labels  []int
	classes int

	// mu guards the churn-era state below. It intentionally does NOT fence
	// selections against membership changes — callers that interleave them
	// hold their own lock (the server layer uses a per-consortium run lock).
	mu       sync.Mutex
	simCache *core.SimCache
	// lastSelected remembers the most recent selection as the default prior
	// for the "warm" optimizer.
	lastSelected []int
}

// NewConsortium builds the full in-process deployment: key server,
// aggregation server, one node per participant, and the leader.
func NewConsortium(ctx context.Context, cfg Config) (*Consortium, error) {
	if cfg.Partition == nil || cfg.Partition.P() == 0 {
		return nil, fmt.Errorf("vfps: config needs a partition")
	}
	n := cfg.Partition.Parties[0].Rows
	if len(cfg.Labels) != n {
		return nil, fmt.Errorf("vfps: %d labels for %d rows", len(cfg.Labels), n)
	}
	if cfg.Classes < 2 {
		return nil, fmt.Errorf("vfps: need at least 2 classes")
	}
	cl, err := vfl.NewLocalCluster(ctx, vfl.ClusterConfig{
		Partition:     cfg.Partition,
		Scheme:        cfg.Scheme,
		KeyBits:       cfg.KeyBits,
		ShuffleSeed:   cfg.ShuffleSeed,
		Batch:         cfg.FaginBatch,
		DPEpsilon:     cfg.DPEpsilon,
		DPDelta:       cfg.DPDelta,
		Parallelism:   cfg.Parallelism,
		Pack:          cfg.Pack,
		PackAdaptive:  cfg.PackAdaptive,
		ChunkBytes:    cfg.ChunkBytes,
		DeltaCache:    cfg.DeltaCache,
		ShardWorkers:  cfg.ShardWorkers,
		PackHint:      cfg.PackWidthHint,
		EncryptWindow: cfg.EncryptWindow,
		Pool:          cfg.SharedPool,
		Wire:          cfg.Wire,
		Obs:           cfg.Obs,
		Instance:      cfg.Instance,
	})
	if err != nil {
		return nil, err
	}
	cons := &Consortium{cluster: cl, pt: cfg.Partition, labels: cfg.Labels, classes: cfg.Classes}
	if cfg.SimCache {
		cons.simCache = core.NewSimCache(0)
		if cfg.Obs != nil {
			core.DeclareSimCacheMetrics(cfg.Obs.Registry())
		}
	}
	return cons, nil
}

// Close releases the consortium's background resources (randomizer
// precompute pools). The consortium stays usable afterwards.
func (c *Consortium) Close() { c.cluster.Close() }

// PackWidthHint exports the adaptive slot width the consortium's aggregation
// coordinator has learned (margin included; 0 before the first adaptive
// round). A serving layer can feed it into a successor consortium's
// Config.PackWidthHint to skip the static warm-up round.
func (c *Consortium) PackWidthHint() int { return c.cluster.Agg.PackHint() }

// ShardWorkers reports how many aggregation shard workers the consortium
// runs (0 when the tree reduce is unsharded).
func (c *Consortium) ShardWorkers() int { return len(c.cluster.Workers) }

// P returns the current number of participants, reflecting any membership
// changes since construction.
func (c *Consortium) P() int { return c.cluster.Leader.P() }

// PartyNames returns the current roster's node names in index order.
func (c *Consortium) PartyNames() []string { return c.cluster.PartyNames() }

// AddParticipant joins a new participant holding the given feature rows
// (one row per data instance, matching N) to the running consortium. The
// deployment is rewired in place — no teardown, surviving nodes keep their
// caches — so a re-selection after the join pays encryption only for the
// joiner's blocks when the delta cache is on. Returns the new party's node
// name. Not supported under the "secagg" scheme. Callers must not run a
// selection concurrently; the server layer fences with its per-consortium
// run lock.
func (c *Consortium) AddParticipant(features [][]float64) (string, error) {
	if len(features) != c.N() {
		return "", fmt.Errorf("vfps: joiner has %d rows, consortium holds %d", len(features), c.N())
	}
	if len(features[0]) == 0 {
		return "", fmt.Errorf("vfps: joiner holds no features")
	}
	for i, r := range features {
		if len(r) != len(features[0]) {
			return "", fmt.Errorf("vfps: joiner row %d has %d features, row 0 has %d", i, len(r), len(features[0]))
		}
	}
	return c.cluster.AddParticipant(mat.FromRows(features))
}

// RemoveParticipant removes the participant with the given index (the i in
// its party/<i> node name) and rewires the deployment in place. The last
// participant cannot be removed. Not supported under the "secagg" scheme.
func (c *Consortium) RemoveParticipant(index int) error {
	return c.cluster.RemoveParticipant(index)
}

// N returns the number of data instances.
func (c *Consortium) N() int { return c.pt.Parties[0].Rows }

// SelectOptions tunes a VFPS-SM selection. The zero value follows the
// paper's defaults.
type SelectOptions struct {
	// K is the proxy-KNN neighbour count (default 10).
	K int
	// NumQueries is the number of query samples drawn from the data
	// (default 32, or all rows if fewer). Ignored when Queries is set.
	NumQueries int
	// Queries overrides the sampled query set with explicit row indices.
	Queries []int
	// Seed drives query sampling and the stochastic optimizer.
	Seed int64
	// Stratified draws the query sample with per-class proportional
	// allocation using the leader's labels, which stabilises the likelihood
	// estimate on imbalanced data. Ignored when Queries is set.
	Stratified bool
	// Base disables the Fagin optimization (VFPS-SM-BASE).
	Base bool
	// TopK overrides the top-k protocol: "fagin" (default), "base", or
	// "threshold" (leader-assisted Threshold Algorithm). Takes precedence
	// over Base when set.
	TopK string
	// Optimizer is "greedy" (default), "lazy", "stochastic", or "warm" — the
	// last revalidates a prior selection and repairs only displaced picks,
	// producing exactly the greedy answer. The prior is WarmStart when set,
	// otherwise the consortium's own most recent selection.
	Optimizer string
	// WarmStart overrides the "warm" optimizer's prior selection. Ignored by
	// the other optimizers.
	WarmStart []int
	// Parallelism bounds concurrent in-flight queries during the similarity
	// phase (default 1). Results are identical to the sequential run.
	Parallelism int
}

// queriesFor resolves the query set against a consortium, honouring the
// Stratified option (which needs the leader-held labels).
func (c *Consortium) queriesFor(o SelectOptions) []int {
	if len(o.Queries) > 0 {
		return o.Queries
	}
	nq := o.NumQueries
	if nq <= 0 {
		nq = 32
	}
	if o.Stratified {
		return core.SampleQueriesStratified(c.labels, c.classes, nq, o.Seed)
	}
	return core.SampleQueries(c.N(), nq, o.Seed)
}

func (o SelectOptions) k() int {
	if o.K <= 0 {
		return 10
	}
	return o.K
}

// Select runs VFPS-SM and returns the chosen sub-consortium with full cost
// accounting.
func (c *Consortium) Select(ctx context.Context, count int, opts SelectOptions) (*Selection, error) {
	variant := vfl.VariantFagin
	if opts.Base {
		variant = vfl.VariantBase
	}
	if opts.TopK != "" {
		variant = vfl.Variant(opts.TopK)
	}
	c.mu.Lock()
	prior := opts.WarmStart
	if prior == nil {
		prior = c.lastSelected
	}
	cache := c.simCache
	c.mu.Unlock()
	sel, err := core.Select(ctx, c.cluster.Leader, count, core.Config{
		K:           opts.k(),
		Queries:     c.queriesFor(opts),
		Variant:     variant,
		Optimizer:   core.Optimizer(opts.Optimizer),
		Seed:        opts.Seed,
		Parallelism: opts.Parallelism,
		WarmStart:   prior,
		Cache:       cache,
	})
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.lastSelected = append([]int(nil), sel.Selected...)
	c.mu.Unlock()
	return sel, nil
}

// AdaptiveOptions tunes SelectAdaptive: selection that adds query batches
// until the similarity estimate stabilises instead of spending a fixed query
// budget.
type AdaptiveOptions struct {
	SelectOptions
	// ChunkSize is the number of queries per round (default 8).
	ChunkSize int
	// Tolerance is the convergence threshold on W entries (default 0.01).
	Tolerance float64
	// MinQueries is the floor before convergence may trigger.
	MinQueries int
}

// SelectAdaptive runs VFPS-SM with an adaptive query budget: NumQueries (or
// Queries) caps the budget, and the run stops early once two consecutive
// similarity estimates agree within Tolerance. Selection.QueriesUsed reports
// the realised budget.
func (c *Consortium) SelectAdaptive(ctx context.Context, count int, opts AdaptiveOptions) (*Selection, error) {
	variant := vfl.VariantFagin
	if opts.Base {
		variant = vfl.VariantBase
	}
	if opts.TopK != "" {
		variant = vfl.Variant(opts.TopK)
	}
	c.mu.Lock()
	prior := opts.WarmStart
	if prior == nil {
		prior = c.lastSelected
	}
	c.mu.Unlock()
	return core.SelectAdaptive(ctx, c.cluster.Leader, count, core.AdaptiveConfig{
		Config: core.Config{
			K:           opts.k(),
			Queries:     c.queriesFor(opts.SelectOptions),
			Variant:     variant,
			Optimizer:   core.Optimizer(opts.Optimizer),
			Seed:        opts.Seed,
			Parallelism: opts.Parallelism,
			WarmStart:   prior,
		},
		ChunkSize:  opts.ChunkSize,
		Tolerance:  opts.Tolerance,
		MinQueries: opts.MinQueries,
	})
}

// BaselineSelection reports a baseline method's outcome with the same cost
// accounting as Selection.
type BaselineSelection struct {
	Method           Method
	Selected         []int
	Scores           []float64 // per-participant scores (nil for random)
	Counts           CostCounts
	WallTime         time.Duration
	ProjectedSeconds float64
}

// SelectWith runs any of the paper's selection strategies, returning a
// uniform report. For MethodVFPS and MethodVFPSBase the Selection is
// converted to a BaselineSelection for comparison tables.
func (c *Consortium) SelectWith(ctx context.Context, method Method, count int, opts SelectOptions) (*BaselineSelection, error) {
	start := time.Now()
	switch method {
	case MethodVFPS, MethodVFPSBase:
		opts.Base = method == MethodVFPSBase
		sel, err := c.Select(ctx, count, opts)
		if err != nil {
			return nil, err
		}
		return &BaselineSelection{
			Method:           method,
			Selected:         sel.Selected,
			Counts:           sel.Counts,
			WallTime:         sel.WallTime,
			ProjectedSeconds: sel.ProjectedSeconds,
		}, nil
	case MethodRandom:
		sel, err := baselines.SelectRandom(c.P(), count, opts.Seed)
		if err != nil {
			return nil, err
		}
		return &BaselineSelection{Method: method, Selected: sel, WallTime: time.Since(start)}, nil
	case MethodShapley, MethodVFMine:
		var counts costmodel.Counts
		px, err := baselines.NewProxy(c.pt, c.labels, c.classes, c.queriesFor(opts), opts.k())
		if err != nil {
			return nil, err
		}
		px.Counts = &counts
		var scores []float64
		if method == MethodShapley {
			scores, err = baselines.ShapleyValues(px)
		} else {
			scores, err = baselines.VFMineScores(px, 0, opts.Seed)
		}
		if err != nil {
			return nil, err
		}
		raw := counts.Snapshot()
		return &BaselineSelection{
			Method:           method,
			Selected:         baselines.SelectTop(scores, count),
			Scores:           scores,
			Counts:           raw,
			WallTime:         time.Since(start),
			ProjectedSeconds: costmodel.For(c.cluster.Leader.Scheme().Name()).Seconds(raw),
		}, nil
	default:
		return nil, fmt.Errorf("vfps: unknown selection method %q", method)
	}
}

// RewardShares computes fair, order-independent contribution shares from a
// completed selection: the Shapley values of the KNN submodular likelihood
// over the estimated similarity matrix. This addresses the reward-fairness
// limitation the paper leaves as future work (§IV-D) — greedy gains
// systematically under-credit later picks, while these shares are symmetric
// (exact duplicates earn the same) and sum to the full-consortium objective.
func RewardShares(sel *Selection) ([]float64, error) {
	if sel == nil {
		return nil, fmt.Errorf("vfps: nil selection")
	}
	return core.RewardShares(sel.W)
}

// Partition exposes the consortium's vertical partition.
func (c *Consortium) Partition() *Partition { return c.pt }

// Labels exposes the leader-held labels.
func (c *Consortium) Labels() []int { return c.labels }

// Classes returns the number of label classes.
func (c *Consortium) Classes() int { return c.classes }

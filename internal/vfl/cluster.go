package vfl

import (
	"context"
	"fmt"

	"vfps/internal/costmodel"
	"vfps/internal/dataset"
	"vfps/internal/he"
	"vfps/internal/mat"
	"vfps/internal/obs"
	"vfps/internal/transport"
	"vfps/internal/wire"
)

// ClusterConfig describes an in-process VFL deployment.
type ClusterConfig struct {
	// Partition supplies each participant's local features (training rows).
	Partition *dataset.Partition
	// Scheme is "paillier", "plain", "secagg" or "dp".
	Scheme string
	// DPEpsilon/DPDelta tune the "dp" scheme (defaults 1.0 and 1e-5).
	DPEpsilon, DPDelta float64
	// KeyBits sizes the Paillier modulus (ignored for plain). Tests use
	// small keys; production deployments should use ≥ 2048.
	KeyBits int
	// ShuffleSeed seeds the shared pseudo-ID permutation.
	ShuffleSeed int64
	// Batch is the Fagin mini-batch size b (default 32).
	Batch int
	// Parallelism pins the concurrency of the HE pipeline on every role
	// (party fan-out, worker-pool encryption/decryption): 1 restores fully
	// serial execution, 0 or negative uses the default degree
	// (VFPS_PARALLELISM or GOMAXPROCS). Results are identical at every
	// setting.
	Parallelism int
	// RandomizerPool sizes the Paillier pool of precomputed encryption
	// randomizers (0 → a default when Parallelism != 1; negative disables).
	// Ignored by the other schemes.
	RandomizerPool int
	// Pool, when non-nil, attaches the cluster's encrypting roles to a shared
	// cluster-lifetime PoolSet instead of starting a private pool: randomizer
	// precomputation then survives across protocol rounds and across clusters
	// sharing the same key, and the caller owns teardown (ps.Close). It takes
	// effect even at Parallelism 1 — pooling does not change call order, so
	// selections stay bit-identical. RandomizerPool < 0 still disables
	// pooling entirely.
	Pool *he.PoolSet
	// EncryptWindow pins the fixed-base window width used by randomizer
	// production in pools this cluster starts: 0 keeps the paillier default
	// (currently 6), negative restores classic uniform-r sampling (one full
	// modexp per randomizer). Ignored when Pool is set (the PoolSet carries
	// its own window) and by non-Paillier schemes.
	EncryptWindow int
	// Mont selects the modular-arithmetic backend of every Paillier scheme the
	// cluster configures: 0 or positive runs the Montgomery kernel of
	// internal/mont, negative forces pure math/big. Both backends compute
	// identical residues — ciphertexts, sums and selections are
	// bit-identical — so the math/big path is the reference the kernel is
	// checked against. Ignored by non-Paillier schemes.
	Mont int
	// Pack enables Paillier slot packing: participants lay several
	// fixed-point partial distances side by side in each plaintext, cutting
	// ciphertext count and bytes on the wire by the pack factor (key-size
	// dependent; ~15× at 2048-bit keys). The headroom is provisioned for
	// summing one ciphertext per party, exactly what the aggregation tree
	// performs. Selection results are bit-identical with packing on or off.
	// Ignored by non-Paillier schemes; fails cluster construction when the
	// key is too small to hold even one slot.
	Pack bool
	// PackAdaptive lets the aggregation server renegotiate the slot width per
	// round from the magnitude bounds the parties advertise, packing more
	// values per ciphertext than the static worst-case geometry whenever the
	// data allows. Requires Pack; ignored otherwise. Selections stay
	// bit-identical — only the carrier layout changes.
	PackAdaptive bool
	// ShardWorkers ≥ 2 shards the aggregation tree reduce: that many in-process
	// shard workers are built over aligned power-of-two party subtrees (see
	// PlanSubtrees) and the aggregation server becomes their coordinator.
	// Selections are bit-identical at every worker count, 0/1 included; only
	// where the ciphertext additions run changes. Counts of ≤ 1 (or plans that
	// collapse to one shard) keep the unsharded path.
	ShardWorkers int
	// PackHint seeds the adaptive pack negotiation with a slot width learned
	// by an earlier consortium over the same data shape (margin included), so
	// round one packs adaptively instead of paying the static warm-up. Only
	// meaningful with Pack+PackAdaptive; 0 keeps the in-band negotiation.
	PackHint int
	// ChunkBytes > 0 splits collection responses into ≤ChunkBytes ciphertext
	// chunks, letting the leader pipeline chunk decryption.
	ChunkBytes int
	// DeltaCache enables cross-round delta encoding: both ends of each link
	// cache ciphertext blocks by (query, geometry, pseudo-ID segment) and
	// repeat queries resend only changed blocks.
	DeltaCache bool
	// Wire names the protocol codec every role speaks. The compact binary
	// format of internal/wire is the only one: "" and "binary" select it,
	// anything else fails cluster construction.
	Wire string
	// Obs installs metrics and tracing on the transport, every role and the
	// HE schemes. Nil falls back to the process-wide default observer
	// (obs.SetDefault); when that is also unset, observability stays fully
	// disabled at no measurable cost.
	Obs *obs.Observer
	// Instance labels this cluster's metric series so several consortiums
	// can share one registry (default "local").
	Instance string
}

// Cluster is a fully wired in-process deployment: key server, aggregation
// server, one node per participant, and the leader driver.
type Cluster struct {
	Transport *transport.Memory
	Leader    *Leader
	Parties   []*Participant
	Agg       *AggServer
	Workers   []*AggServer // shard workers (nil when unsharded)
	Keys      *KeyServer

	shuffleSeed int64
	pubScheme   he.Scheme
	privScheme  he.Scheme
	parallelism int
	observer    *obs.Observer
	instance    string

	// Membership state (see AddParticipant / RemoveParticipant): the current
	// roster in index order, a monotone index counter so node names are never
	// reused after a removal, and the construction knobs rewiring needs.
	partyNames   []string
	nextIndex    int
	pack         bool
	shardWorkers int
}

// Observer returns the cluster's observer (nil when observability is off).
func (c *Cluster) Observer() *obs.Observer { return c.observer }

// configureScheme applies the cluster parallelism, arithmetic-backend and
// pooling settings to an HE scheme; only Paillier has tunables today. The
// backend is applied first so any pool started below builds its fixed-base
// tables in the selected representation. A shared PoolSet wins over a private
// pool and attaches even at Parallelism 1 (pooling never changes call order,
// so the determinism baseline is preserved); otherwise a private pool is
// started unless the cluster is pinned fully serial or the pool is explicitly
// disabled.
func configureScheme(s he.Scheme, parallelism, pool, window, mont int, shared *he.PoolSet) {
	p, ok := s.(*he.Paillier)
	if !ok {
		return
	}
	p.SetMont(mont)
	p.SetParallelism(parallelism)
	if pool < 0 {
		return
	}
	if shared != nil {
		p.AttachPool(shared)
		return
	}
	if parallelism == 1 {
		return
	}
	if pool == 0 {
		pool = 4 * p.Parallelism()
	}
	p.SetEncryptWindow(window)
	p.StartRandomizerPool(pool, 1)
}

// configurePacking enables Paillier slot packing with headroom for one
// addition per party. Non-Paillier schemes ignore the knob: SecAgg/DP
// ciphertexts are item-bound masks and Plain already ships 8-byte values.
func configurePacking(s he.Scheme, pack bool, parties int) error {
	if !pack {
		return nil
	}
	p, ok := s.(*he.Paillier)
	if !ok {
		return nil
	}
	return p.EnablePacking(parties)
}

// Close releases background resources (Paillier randomizer pools). The
// cluster stays usable afterwards; encryption just computes randomizers
// inline again.
func (c *Cluster) Close() {
	for _, s := range []he.Scheme{c.pubScheme, c.privScheme} {
		if p, ok := s.(*he.Paillier); ok {
			p.Close()
		}
	}
}

// NewLocalCluster builds the full topology over the in-memory transport,
// distributing key material through the key-server RPCs exactly as the
// distributed deployment does.
func NewLocalCluster(ctx context.Context, cfg ClusterConfig) (*Cluster, error) {
	if cfg.Partition == nil || cfg.Partition.P() == 0 {
		return nil, fmt.Errorf("vfl: cluster needs a partition")
	}
	if cfg.Scheme == "" {
		cfg.Scheme = "plain"
	}
	if cfg.KeyBits == 0 {
		cfg.KeyBits = 512
	}
	o := cfg.Obs.Or(obs.Default())
	instance := cfg.Instance
	if instance == "" {
		instance = "local"
	}
	if _, err := wire.ByName(cfg.Wire); err != nil {
		return nil, err
	}
	if reg := o.Registry(); reg != nil {
		transport.DeclareMetrics(reg)
		he.DeclareMetrics(reg)
		costmodel.DeclareMetrics(reg)
		declareWire(reg)
		declareDelta(reg)
	}
	tr := &transport.Memory{}
	tr.SetObserver(o)
	var ks *KeyServer
	var err error
	switch cfg.Scheme {
	case "secagg":
		ks, err = NewKeyServerSecAgg(cfg.Partition.P(), cfg.ShuffleSeed^0x5eca66)
	case "dp":
		eps, delta := cfg.DPEpsilon, cfg.DPDelta
		if eps == 0 {
			eps = 1.0
		}
		if delta == 0 {
			delta = 1e-5
		}
		ks, err = NewKeyServerDP(eps, delta, cfg.ShuffleSeed^0xd9)
	default:
		ks, err = NewKeyServer(cfg.Scheme, cfg.KeyBits)
	}
	if err != nil {
		return nil, err
	}
	tr.Register(KeyServerName, ks.Handler())

	pubScheme, err := FetchPublicSchemeWire(ctx, transport.NewCodecCaller(tr, nil), KeyServerName)
	if err != nil {
		return nil, err
	}
	configureScheme(pubScheme, cfg.Parallelism, cfg.RandomizerPool, cfg.EncryptWindow, cfg.Mont, cfg.Pool)
	if err := configurePacking(pubScheme, cfg.Pack, cfg.Partition.P()); err != nil {
		return nil, err
	}
	if ob, ok := pubScheme.(he.Observable); ok {
		ob.SetObserver(o.Registry(), instance+"/public")
	}
	p := cfg.Partition.P()
	partyNames := make([]string, p)
	parties := make([]*Participant, p)
	for i := 0; i < p; i++ {
		part, err := NewParticipant(i, cfg.Partition.Parties[i], pubScheme, cfg.ShuffleSeed)
		if err != nil {
			return nil, err
		}
		part.SetParallelism(cfg.Parallelism)
		part.SetObserver(o, instance)
		parties[i] = part
		partyNames[i] = PartyName(i)
		tr.Register(partyNames[i], part.Handler())
	}
	agg, err := NewAggServer(tr, partyNames, pubScheme)
	if err != nil {
		return nil, err
	}
	agg.SetParallelism(cfg.Parallelism)
	agg.SetObserver(o, instance)
	if cfg.PackAdaptive && cfg.Pack {
		agg.SetPackHint(cfg.PackHint)
	}
	tr.Register(AggServerName, agg.Handler())

	workers, plan, err := buildShardWorkers(tr, partyNames, pubScheme, cfg.ShardWorkers, cfg.Parallelism, o, instance)
	if err != nil {
		return nil, err
	}
	var workerNames []string
	if plan != nil {
		workerNames = plan.Workers
		if err := agg.SetShardPlan(plan); err != nil {
			return nil, err
		}
	}

	privScheme, err := FetchPrivateSchemeWire(ctx, transport.NewCodecCaller(tr, nil), KeyServerName)
	if err != nil {
		return nil, err
	}
	// The leader decrypts but never bulk-encrypts, so it gets no pool.
	configureScheme(privScheme, cfg.Parallelism, -1, cfg.EncryptWindow, cfg.Mont, nil)
	if err := configurePacking(privScheme, cfg.Pack, cfg.Partition.P()); err != nil {
		return nil, err
	}
	if ob, ok := privScheme.(he.Observable); ok {
		ob.SetObserver(o.Registry(), instance+"/leader")
	}
	leader, err := NewLeader(tr, AggServerName, partyNames, privScheme, cfg.Batch)
	if err != nil {
		return nil, err
	}
	leader.SetParallelism(cfg.Parallelism)
	leader.SetObserver(o, instance)
	leader.SetPayloadOptions(cfg.PackAdaptive && cfg.Pack, cfg.ChunkBytes, cfg.DeltaCache)
	leader.SetExtraCountNodes(workerNames)
	return &Cluster{
		Transport:    tr,
		Leader:       leader,
		Parties:      parties,
		Agg:          agg,
		Workers:      workers,
		Keys:         ks,
		shuffleSeed:  cfg.ShuffleSeed,
		pubScheme:    pubScheme,
		privScheme:   privScheme,
		parallelism:  cfg.Parallelism,
		observer:     o,
		instance:     instance,
		partyNames:   partyNames,
		nextIndex:    p,
		pack:         cfg.Pack,
		shardWorkers: cfg.ShardWorkers,
	}, nil
}

// buildShardWorkers constructs shard workers over the roster when the
// configuration calls for a sharded reduce, registering their handlers on
// the transport (Register replaces any previous handler under the same
// name, which is what lets a membership change rebuild the shard layer in
// place). Returns (nil, nil, nil) when the plan collapses to the unsharded
// path.
func buildShardWorkers(tr *transport.Memory, partyNames []string, pubScheme he.Scheme, shardWorkers, parallelism int, o *obs.Observer, instance string) ([]*AggServer, *ShardPlan, error) {
	size, shards := PlanSubtrees(len(partyNames), shardWorkers)
	if shardWorkers < 2 || shards < 2 {
		return nil, nil, nil
	}
	plan := &ShardPlan{SubtreeSize: size}
	var workers []*AggServer
	for wi := 0; wi < shards; wi++ {
		lo, hi := plan.shardRange(wi, len(partyNames))
		w, err := NewAggServer(tr, partyNames[lo:hi], pubScheme)
		if err != nil {
			return nil, nil, err
		}
		w.SetParallelism(parallelism)
		w.SetRole(AggWorkerName(wi))
		w.SetObserver(o, instance)
		name := AggWorkerName(wi)
		tr.Register(name, w.Handler())
		workers = append(workers, w)
		plan.Workers = append(plan.Workers, name)
	}
	return workers, plan, nil
}

// PartyNames returns the current roster's node names in index order.
func (c *Cluster) PartyNames() []string { return append([]string(nil), c.partyNames...) }

// checkMembershipScheme rejects membership changes the protection scheme
// cannot honour: secagg's pairwise masks fix the consortium size at key
// setup.
func (c *Cluster) checkMembershipScheme() error {
	if _, ok := c.pubScheme.(*he.SecAgg); ok {
		return fmt.Errorf("vfl: secagg consortium size is fixed at key setup; rebuild the cluster")
	}
	return nil
}

// AddParticipant joins a new participant to a running consortium: it builds
// the participant node over the shared public scheme and shuffle seed,
// registers it on the transport, and rewires the aggregation roster, shard
// plan, pack headroom and leader roster in place — no teardown, and every
// surviving node keeps its state (delta caches included, so a re-selection
// after the join re-encrypts only the new party's blocks). The joiner must
// hold features for the same instance rows. Node names are never reused: a
// join after a removal gets a fresh index, so cached ciphertext blocks can
// never alias across distinct parties. Callers fence concurrent selections
// (the server layer uses the per-consortium run lock). Not supported under
// the secagg scheme, whose pairwise masks fix the consortium size at key
// setup.
func (c *Cluster) AddParticipant(x *mat.Matrix) (string, error) {
	if err := c.checkMembershipScheme(); err != nil {
		return "", err
	}
	index := c.nextIndex
	part, err := NewParticipant(index, x, c.pubScheme, c.shuffleSeed)
	if err != nil {
		return "", err
	}
	part.SetParallelism(c.parallelism)
	part.SetObserver(c.observer, c.instance)
	name := PartyName(index)
	c.Transport.Register(name, part.Handler())
	c.Parties = append(c.Parties, part)
	c.partyNames = append(c.partyNames, name)
	c.nextIndex = index + 1
	if err := c.rewire(); err != nil {
		return "", err
	}
	return name, nil
}

// RemoveParticipant removes the participant with the given index (the i of
// its party/<i> node name) from the consortium and rewires the aggregation
// roster, shard plan, pack headroom and leader roster in place. Surviving
// parties keep their indices, names and caches. The last participant cannot
// be removed. Callers fence concurrent selections with the consortium's run
// lock.
func (c *Cluster) RemoveParticipant(index int) error {
	if err := c.checkMembershipScheme(); err != nil {
		return err
	}
	name := PartyName(index)
	pos := -1
	for i, n := range c.partyNames {
		if n == name {
			pos = i
			break
		}
	}
	if pos < 0 {
		return fmt.Errorf("vfl: no participant %q in the consortium", name)
	}
	if len(c.partyNames) == 1 {
		return fmt.Errorf("vfl: cannot remove the last participant")
	}
	// The node's handler stays registered on the transport (nothing routes
	// to it once the rosters drop it); only the rosters change.
	c.Parties = append(c.Parties[:pos], c.Parties[pos+1:]...)
	c.partyNames = append(c.partyNames[:pos], c.partyNames[pos+1:]...)
	return c.rewire()
}

// rewire propagates the current roster through every layer that depends on
// membership: Paillier pack headroom (the packed aggregation sums one
// ciphertext per party), the aggregation server's roster, the shard worker
// set and plan, and the leader's roster and accounting nodes.
func (c *Cluster) rewire() error {
	p := len(c.partyNames)
	if err := configurePacking(c.pubScheme, c.pack, p); err != nil {
		return err
	}
	if err := configurePacking(c.privScheme, c.pack, p); err != nil {
		return err
	}
	if err := c.Agg.SetParties(c.partyNames); err != nil {
		return err
	}
	workers, plan, err := buildShardWorkers(c.Transport, c.partyNames, c.pubScheme, c.shardWorkers, c.parallelism, c.observer, c.instance)
	if err != nil {
		return err
	}
	c.Workers = workers
	var workerNames []string
	if plan != nil {
		workerNames = plan.Workers
		if err := c.Agg.SetShardPlan(plan); err != nil {
			return err
		}
	}
	if err := c.Leader.SetParties(c.partyNames); err != nil {
		return err
	}
	c.Leader.SetExtraCountNodes(workerNames)
	return nil
}

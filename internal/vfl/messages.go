// Package vfl implements the vertical-federated-learning runtime of the
// paper's §IV: the three system roles (key server, aggregation server,
// participants with one leader), the vertical KNN oracle in both the
// baseline variant (encrypt all N partial distances per query) and the
// Fagin-optimized variant (encrypt candidates only), pseudo-ID shuffling for
// identity security, and per-role operation accounting for the cost model.
//
// Message flow per query q (optimized variant, Fig. 3):
//
//	leader ──FaginCollect──▶ aggregation server
//	   agg ──RankingBatch──▶ each participant   (Step ①–②, mini-batches)
//	   agg runs Fagin until k ids seen in all lists (Step ③)
//	   agg ──EncryptCandidates──▶ each participant (Step ④)
//	   agg homomorphically sums the candidate ciphertexts (Step ⑤)
//	leader decrypts candidate totals, picks the k nearest T (Step ⑥)
//	leader ──NeighborSum(T)──▶ each participant (Step ⑦)
//	leader computes w_q(p1,p2) from the returned d^p_T (Step ⑧)
package vfl

import (
	"vfps/internal/costmodel"
	"vfps/internal/wire"
)

// Node names used by both the in-memory cluster and cmd/vfpsnode.
const (
	KeyServerName = "keyserver"
	AggServerName = "aggserver"
)

// Method names served by the roles.
const (
	// Key server.
	MethodPublicKey  = "key.public"
	MethodPrivateKey = "key.private"

	// Participants.
	MethodRankingBatch      = "party.rankingBatch"
	MethodEncryptAll        = "party.encryptAll"
	MethodEncryptCandidates = "party.encryptCandidates"
	MethodNeighborSum       = "party.neighborSum"
	MethodCounts            = "node.counts"
	MethodResetCounts       = "node.resetCounts"

	// Aggregation server.
	MethodCollectAll          = "agg.collectAll"
	MethodFaginCollect        = "agg.faginCollect"
	MethodAggregateCandidates = "agg.aggregateCandidates"
	MethodAggregateFrontier   = "agg.aggregateFrontier"

	// Aggregation worker (coordinator → shard worker, see shard.go).
	MethodShardCollect = "agg.shardCollect"

	// Participant methods used only by the Threshold-Algorithm variant.
	MethodEncryptRankScore = "party.encryptRankScore"
)

// PublicKeyResp carries the protection-scheme choice plus its key material:
// the serialised public key for Paillier, or the consortium masking
// parameters for secagg.
type PublicKeyResp struct {
	Scheme   string  // "paillier", "plain", "secagg" or "dp"
	Key      []byte  // Paillier public key; nil otherwise
	Parties  int     // secagg consortium size
	MaskSeed int64   // secagg masking seed / dp noise seed
	Epsilon  float64 // dp privacy parameters
	Delta    float64
}

// PrivateKeyResp carries the serialised private key to the leader.
type PrivateKeyResp struct {
	Scheme   string
	Key      []byte
	Parties  int
	MaskSeed int64
	Epsilon  float64
	Delta    float64
}

// RankingBatchReq asks a participant for the next mini-batch of its
// ascending-distance sub-ranking for a query.
type RankingBatchReq struct {
	Query  int // original instance id of the query sample
	Offset int // rank offset into the sorted list
	Count  int // mini-batch size b
}

// RankingBatchResp returns pseudo IDs in ascending partial-distance order.
type RankingBatchResp struct {
	PseudoIDs []int
}

// EncryptAllReq asks for encrypted partial distances of every instance
// (except the query itself), the VFPS-SM-BASE access pattern.
//
// PackBits > 0 dictates the adaptive slot width (per-value magnitude bound,
// in bits) the party must pack under — negotiated from the NeedBits the
// parties advertised last round. 0 keeps the static EnablePacking geometry.
// Delta asks the party to withhold ciphertext blocks the aggregator already
// caches from an earlier round; NoCache forces a full resend (the cache-miss
// recovery path).
type EncryptAllReq struct {
	Query    int
	PackBits int
	Delta    bool
	NoCache  bool
}

// EncryptAllResp returns ciphertexts aligned with ascending pseudo IDs.
// PackFactor > 1 means each ciphertext carries that many consecutive values
// (slot packing; the last one partially filled), so len(Ciphers) is
// ceil(len(PseudoIDs)/PackFactor). 0 or 1 means one value per ciphertext —
// the pre-packing wire format (an absent field decodes as 0).
//
// PackBits echoes the adaptive slot width the ciphertexts were packed under
// (0 = static geometry). NeedBits advertises the smallest slot width this
// party's values would fit, feeding the aggregator's next-round negotiation.
// CachedBlocks lists indices into the full ciphertext vector that were
// withheld because the receiver caches them (the corresponding Ciphers
// entries are empty placeholders).
type EncryptAllResp struct {
	PseudoIDs    []int
	Ciphers      [][]byte
	PackFactor   int
	PackBits     int
	NeedBits     int
	CachedBlocks []int
}

// EncryptCandidatesReq asks for encrypted partial distances of the given
// candidate pseudo IDs only (the Fagin-pruned set). PackBits, Delta and
// NoCache behave as in EncryptAllReq.
type EncryptCandidatesReq struct {
	Query     int
	PseudoIDs []int
	PackBits  int
	Delta     bool
	NoCache   bool
}

// EncryptCandidatesResp returns ciphertexts aligned with the request order
// (slot-packed when PackFactor > 1; PackBits, NeedBits and CachedBlocks as in
// EncryptAllResp).
type EncryptCandidatesResp struct {
	Ciphers      [][]byte
	PackFactor   int
	PackBits     int
	NeedBits     int
	CachedBlocks []int
}

// NeighborSumReq asks for d^p_T = Σ_{t∈T} d^p_t over the pseudo IDs of the
// query's k nearest neighbours.
type NeighborSumReq struct {
	Query     int
	PseudoIDs []int
}

// NeighborSumResp returns the plaintext partial-distance sum.
type NeighborSumResp struct {
	Sum float64
}

// CountsResp returns a node's operation counters.
type CountsResp struct {
	Counts costmodel.Raw
}

// EncryptRankScoreReq asks a participant to encrypt the partial distance of
// the instance at the given rank of its sorted list (the TA scan frontier).
// Ranks past the end of the list clamp to the last entry.
type EncryptRankScoreReq struct {
	Query int
	Rank  int
}

// EncryptRankScoreResp returns the frontier ciphertext.
type EncryptRankScoreResp struct {
	Cipher []byte
}

// AggregateCandidatesReq asks the aggregation server to collect and
// homomorphically sum the parties' encrypted partial distances for specific
// pseudo IDs (TA random-access phase). Adaptive lets the aggregator negotiate
// the slot width with the parties; Delta enables cross-round ciphertext
// caching on the leader link; NoCache forces a full resend.
type AggregateCandidatesReq struct {
	Query     int
	PseudoIDs []int
	Adaptive  bool
	Delta     bool
	NoCache   bool
}

// AggregateCandidatesResp returns aggregated ciphertexts aligned with the
// request order (slot-packed when PackFactor > 1, see EncryptAllResp).
// PackBits reports the adaptive slot width in effect (0 = static); PackAdds
// the aggregation depth the leader must unpack under; CachedBlocks the
// withheld indices as in EncryptAllResp.
type AggregateCandidatesResp struct {
	Aggregated   [][]byte
	PackFactor   int
	PackBits     int
	PackAdds     int
	CachedBlocks []int
}

// AggregateFrontierReq asks the aggregation server for the encrypted TA
// threshold: the sum over parties of each party's score at the given rank.
type AggregateFrontierReq struct {
	Query int
	Rank  int
}

// AggregateFrontierResp returns the aggregated threshold ciphertext.
type AggregateFrontierResp struct {
	Cipher []byte
}

// CollectAllReq drives the BASE variant for one query. ChunkBytes > 0 asks
// for the aggregated vector chunk-framed at roughly that content size per
// chunk. Adaptive, Delta and NoCache behave as in AggregateCandidatesReq.
type CollectAllReq struct {
	Query      int
	ChunkBytes int
	Adaptive   bool
	Delta      bool
	NoCache    bool
}

// CollectAllResp returns the homomorphically aggregated complete distances
// for every pseudo ID (slot-packed when PackFactor > 1, see EncryptAllResp;
// PackBits/PackAdds/CachedBlocks as in AggregateCandidatesResp). When the
// request asked for chunk framing and the codec supports it, the vector rides
// Chunked instead of Aggregated.
type CollectAllResp struct {
	PseudoIDs    []int
	Aggregated   [][]byte
	PackFactor   int
	PackBits     int
	PackAdds     int
	CachedBlocks []int
	Chunked      [][][]byte
}

// FaginCollectReq drives the optimized variant for one query. ChunkBytes,
// Adaptive, Delta and NoCache behave as in CollectAllReq.
type FaginCollectReq struct {
	Query      int
	K          int
	Batch      int
	ChunkBytes int
	Adaptive   bool
	Delta      bool
	NoCache    bool
}

// ShardCollectReq asks one aggregation worker to collect its shard's party
// vectors and tree-reduce them locally (see shard.go for the subtree-cut
// argument). All selects the BASE access pattern (full vectors, pseudo IDs in
// the response) over the candidate pattern (PseudoIDs echoes the request
// order). PackBits dictates the slot width exactly as in EncryptAllReq — the
// coordinator owns the adaptive negotiation, workers only relay the dictated
// geometry. Delta/NoCache tune the worker↔party links as in EncryptAllReq.
type ShardCollectReq struct {
	Query     int
	PseudoIDs []int
	All       bool
	PackBits  int
	Delta     bool
	NoCache   bool
}

// ShardCollectResp returns one shard's locally reduced ciphertext vector.
// PseudoIDs is set in All mode only; PackFactor/PackBits echo the uniform
// geometry of the shard's parties and NeedBits advertises the shard maximum,
// feeding the coordinator's negotiation exactly as a single party would.
type ShardCollectResp struct {
	PseudoIDs  []int
	Ciphers    [][]byte
	PackFactor int
	PackBits   int
	NeedBits   int
}

// packedLen returns how many ciphertexts carry n values at the given pack
// factor: ceil(n/factor), with 0 and 1 both meaning one value per ciphertext.
func packedLen(n, packFactor int) int {
	if packFactor <= 1 {
		return n
	}
	return (n + packFactor - 1) / packFactor
}

// normFactor maps the wire encoding of an absent pack factor (zero, from
// pre-packing peers) to the explicit unpacked factor 1.
func normFactor(f int) int {
	if f <= 1 {
		return 1
	}
	return f
}

// FaginStats reports the pruning achieved by the top-k phase for one query.
type FaginStats struct {
	Rounds     int
	ScanDepth  int
	Candidates int
}

// FaginCollectResp returns aggregated complete distances for the candidate
// set only (slot-packed when PackFactor > 1, see EncryptAllResp; the payload
// extension fields as in CollectAllResp).
type FaginCollectResp struct {
	PseudoIDs    []int
	Aggregated   [][]byte
	PackFactor   int
	Stats        FaginStats
	PackBits     int
	PackAdds     int
	CachedBlocks []int
	Chunked      [][][]byte
}

// ---- wire codec layouts --------------------------------------------------
//
// Every message carries explicit MarshalWire/UnmarshalWire methods pinning
// its v1 binary layout (see internal/wire for the field grammar and
// golden_test.go for byte-level vectors). Tags are append-only: new fields
// take fresh tags so v1 peers skip them. Absent fields decode as zero, which
// the normFactor/packedLen helpers already normalise.

// MarshalWire implements wire.Message. 1: scheme, 2: key, 3: parties,
// 4: maskSeed, 5: epsilon, 6: delta.
func (m *PublicKeyResp) MarshalWire(e *wire.Encoder) {
	e.String(1, m.Scheme)
	e.Bytes(2, m.Key)
	e.Int(3, int64(m.Parties))
	e.Int(4, m.MaskSeed)
	e.Float(5, m.Epsilon)
	e.Float(6, m.Delta)
}

// UnmarshalWire implements wire.Message.
func (m *PublicKeyResp) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			m.Scheme = d.String()
		case 2:
			m.Key = d.Bytes()
		case 3:
			m.Parties = int(d.Int())
		case 4:
			m.MaskSeed = d.Int()
		case 5:
			m.Epsilon = d.Float()
		case 6:
			m.Delta = d.Float()
		}
	}
	return d.Err()
}

// MarshalWire implements wire.Message; same layout as PublicKeyResp.
func (m *PrivateKeyResp) MarshalWire(e *wire.Encoder) {
	(*PublicKeyResp)(m).MarshalWire(e)
}

// UnmarshalWire implements wire.Message.
func (m *PrivateKeyResp) UnmarshalWire(d *wire.Decoder) error {
	return (*PublicKeyResp)(m).UnmarshalWire(d)
}

// MarshalWire implements wire.Message. 1: query, 2: offset, 3: count.
func (m *RankingBatchReq) MarshalWire(e *wire.Encoder) {
	e.Int(1, int64(m.Query))
	e.Int(2, int64(m.Offset))
	e.Int(3, int64(m.Count))
}

// UnmarshalWire implements wire.Message.
func (m *RankingBatchReq) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			m.Query = int(d.Int())
		case 2:
			m.Offset = int(d.Int())
		case 3:
			m.Count = int(d.Int())
		}
	}
	return d.Err()
}

// MarshalWire implements wire.Message. 1: pseudo IDs (delta block).
func (m *RankingBatchResp) MarshalWire(e *wire.Encoder) { e.IDs(1, m.PseudoIDs) }

// UnmarshalWire implements wire.Message.
func (m *RankingBatchResp) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		if d.Tag() == 1 {
			m.PseudoIDs = d.IDs()
		}
	}
	return d.Err()
}

// boolField encodes a flag as an omitted-when-false varint 1, so legacy
// messages stay byte-identical and legacy peers skip the tag.
func boolField(e *wire.Encoder, tag int, v bool) {
	if v {
		e.Int(tag, 1)
	}
}

// MarshalWire implements wire.Message. 1: query, 2: pack bits, 3: delta,
// 4: no-cache.
func (m *EncryptAllReq) MarshalWire(e *wire.Encoder) {
	e.Int(1, int64(m.Query))
	e.Int(2, int64(m.PackBits))
	boolField(e, 3, m.Delta)
	boolField(e, 4, m.NoCache)
}

// UnmarshalWire implements wire.Message.
func (m *EncryptAllReq) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			m.Query = int(d.Int())
		case 2:
			m.PackBits = int(d.Int())
		case 3:
			m.Delta = d.Int() != 0
		case 4:
			m.NoCache = d.Int() != 0
		}
	}
	return d.Err()
}

// MarshalWire implements wire.Message. 1: pseudo IDs, 2: ciphertext blocks,
// 3: pack factor, 4: pack bits, 5: need bits, 6: cached block indices.
func (m *EncryptAllResp) MarshalWire(e *wire.Encoder) {
	e.IDs(1, m.PseudoIDs)
	e.Blobs(2, m.Ciphers)
	e.Int(3, int64(m.PackFactor))
	e.Int(4, int64(m.PackBits))
	e.Int(5, int64(m.NeedBits))
	e.IDs(6, m.CachedBlocks)
}

// UnmarshalWire implements wire.Message.
func (m *EncryptAllResp) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			m.PseudoIDs = d.IDs()
		case 2:
			m.Ciphers = d.Blobs()
		case 3:
			m.PackFactor = int(d.Int())
		case 4:
			m.PackBits = int(d.Int())
		case 5:
			m.NeedBits = int(d.Int())
		case 6:
			m.CachedBlocks = d.IDs()
		}
	}
	return d.Err()
}

// MarshalWire implements wire.Message. 1: query, 2: pseudo IDs, 3: pack bits,
// 4: delta, 5: no-cache.
func (m *EncryptCandidatesReq) MarshalWire(e *wire.Encoder) {
	e.Int(1, int64(m.Query))
	e.IDs(2, m.PseudoIDs)
	e.Int(3, int64(m.PackBits))
	boolField(e, 4, m.Delta)
	boolField(e, 5, m.NoCache)
}

// UnmarshalWire implements wire.Message.
func (m *EncryptCandidatesReq) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			m.Query = int(d.Int())
		case 2:
			m.PseudoIDs = d.IDs()
		case 3:
			m.PackBits = int(d.Int())
		case 4:
			m.Delta = d.Int() != 0
		case 5:
			m.NoCache = d.Int() != 0
		}
	}
	return d.Err()
}

// MarshalWire implements wire.Message. 1: ciphertext blocks, 2: pack factor,
// 3: pack bits, 4: need bits, 5: cached block indices.
func (m *EncryptCandidatesResp) MarshalWire(e *wire.Encoder) {
	e.Blobs(1, m.Ciphers)
	e.Int(2, int64(m.PackFactor))
	e.Int(3, int64(m.PackBits))
	e.Int(4, int64(m.NeedBits))
	e.IDs(5, m.CachedBlocks)
}

// UnmarshalWire implements wire.Message.
func (m *EncryptCandidatesResp) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			m.Ciphers = d.Blobs()
		case 2:
			m.PackFactor = int(d.Int())
		case 3:
			m.PackBits = int(d.Int())
		case 4:
			m.NeedBits = int(d.Int())
		case 5:
			m.CachedBlocks = d.IDs()
		}
	}
	return d.Err()
}

// MarshalWire implements wire.Message. 1: query, 2: pseudo IDs.
func (m *NeighborSumReq) MarshalWire(e *wire.Encoder) {
	e.Int(1, int64(m.Query))
	e.IDs(2, m.PseudoIDs)
}

// UnmarshalWire implements wire.Message.
func (m *NeighborSumReq) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			m.Query = int(d.Int())
		case 2:
			m.PseudoIDs = d.IDs()
		}
	}
	return d.Err()
}

// MarshalWire implements wire.Message. 1: sum (fixed64, bit-exact).
func (m *NeighborSumResp) MarshalWire(e *wire.Encoder) { e.Float(1, m.Sum) }

// UnmarshalWire implements wire.Message.
func (m *NeighborSumResp) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		if d.Tag() == 1 {
			m.Sum = d.Float()
		}
	}
	return d.Err()
}

// wireRaw pins costmodel.Raw's nested wire layout without coupling costmodel
// to the codec. 1: flops, 2: enc, 3: dec, 4: cadd, 5: padd, 6: items,
// 7: msgs, 8: bytes, 9: framing (framing was added with the codec itself, so
// v1 defines it from the start), 10: cache hits, 11: cache misses.
type wireRaw costmodel.Raw

func (r *wireRaw) MarshalWire(e *wire.Encoder) {
	e.Int(1, r.DistanceFlops)
	e.Int(2, r.Encryptions)
	e.Int(3, r.Decryptions)
	e.Int(4, r.CipherAdds)
	e.Int(5, r.PlainAdds)
	e.Int(6, r.ItemsSent)
	e.Int(7, r.Messages)
	e.Int(8, r.BytesSent)
	e.Int(9, r.FramingBytes)
	e.Int(10, r.CacheHits)
	e.Int(11, r.CacheMisses)
}

func (r *wireRaw) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			r.DistanceFlops = d.Int()
		case 2:
			r.Encryptions = d.Int()
		case 3:
			r.Decryptions = d.Int()
		case 4:
			r.CipherAdds = d.Int()
		case 5:
			r.PlainAdds = d.Int()
		case 6:
			r.ItemsSent = d.Int()
		case 7:
			r.Messages = d.Int()
		case 8:
			r.BytesSent = d.Int()
		case 9:
			r.FramingBytes = d.Int()
		case 10:
			r.CacheHits = d.Int()
		case 11:
			r.CacheMisses = d.Int()
		}
	}
	return d.Err()
}

// MarshalWire implements wire.Message. 1: counts (nested wireRaw).
func (m *CountsResp) MarshalWire(e *wire.Encoder) { e.Msg(1, (*wireRaw)(&m.Counts)) }

// UnmarshalWire implements wire.Message.
func (m *CountsResp) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		if d.Tag() == 1 {
			d.Msg((*wireRaw)(&m.Counts))
		}
	}
	return d.Err()
}

// MarshalWire implements wire.Message. 1: query, 2: rank.
func (m *EncryptRankScoreReq) MarshalWire(e *wire.Encoder) {
	e.Int(1, int64(m.Query))
	e.Int(2, int64(m.Rank))
}

// UnmarshalWire implements wire.Message.
func (m *EncryptRankScoreReq) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			m.Query = int(d.Int())
		case 2:
			m.Rank = int(d.Int())
		}
	}
	return d.Err()
}

// MarshalWire implements wire.Message. 1: ciphertext.
func (m *EncryptRankScoreResp) MarshalWire(e *wire.Encoder) { e.Bytes(1, m.Cipher) }

// UnmarshalWire implements wire.Message.
func (m *EncryptRankScoreResp) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		if d.Tag() == 1 {
			m.Cipher = d.Bytes()
		}
	}
	return d.Err()
}

// MarshalWire implements wire.Message. 1: query, 2: pseudo IDs, 3: adaptive,
// 4: delta, 5: no-cache.
func (m *AggregateCandidatesReq) MarshalWire(e *wire.Encoder) {
	e.Int(1, int64(m.Query))
	e.IDs(2, m.PseudoIDs)
	boolField(e, 3, m.Adaptive)
	boolField(e, 4, m.Delta)
	boolField(e, 5, m.NoCache)
}

// UnmarshalWire implements wire.Message.
func (m *AggregateCandidatesReq) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			m.Query = int(d.Int())
		case 2:
			m.PseudoIDs = d.IDs()
		case 3:
			m.Adaptive = d.Int() != 0
		case 4:
			m.Delta = d.Int() != 0
		case 5:
			m.NoCache = d.Int() != 0
		}
	}
	return d.Err()
}

// MarshalWire implements wire.Message. 1: aggregated blocks, 2: pack factor,
// 3: pack bits, 4: pack adds, 5: cached block indices.
func (m *AggregateCandidatesResp) MarshalWire(e *wire.Encoder) {
	e.Blobs(1, m.Aggregated)
	e.Int(2, int64(m.PackFactor))
	e.Int(3, int64(m.PackBits))
	e.Int(4, int64(m.PackAdds))
	e.IDs(5, m.CachedBlocks)
}

// UnmarshalWire implements wire.Message.
func (m *AggregateCandidatesResp) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			m.Aggregated = d.Blobs()
		case 2:
			m.PackFactor = int(d.Int())
		case 3:
			m.PackBits = int(d.Int())
		case 4:
			m.PackAdds = int(d.Int())
		case 5:
			m.CachedBlocks = d.IDs()
		}
	}
	return d.Err()
}

// MarshalWire implements wire.Message. 1: query, 2: rank.
func (m *AggregateFrontierReq) MarshalWire(e *wire.Encoder) {
	e.Int(1, int64(m.Query))
	e.Int(2, int64(m.Rank))
}

// UnmarshalWire implements wire.Message.
func (m *AggregateFrontierReq) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			m.Query = int(d.Int())
		case 2:
			m.Rank = int(d.Int())
		}
	}
	return d.Err()
}

// MarshalWire implements wire.Message. 1: ciphertext.
func (m *AggregateFrontierResp) MarshalWire(e *wire.Encoder) { e.Bytes(1, m.Cipher) }

// UnmarshalWire implements wire.Message.
func (m *AggregateFrontierResp) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		if d.Tag() == 1 {
			m.Cipher = d.Bytes()
		}
	}
	return d.Err()
}

// MarshalWire implements wire.Message. 1: query, 2: chunk bytes, 3: adaptive,
// 4: delta, 5: no-cache.
func (m *CollectAllReq) MarshalWire(e *wire.Encoder) {
	e.Int(1, int64(m.Query))
	e.Int(2, int64(m.ChunkBytes))
	boolField(e, 3, m.Adaptive)
	boolField(e, 4, m.Delta)
	boolField(e, 5, m.NoCache)
}

// UnmarshalWire implements wire.Message.
func (m *CollectAllReq) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			m.Query = int(d.Int())
		case 2:
			m.ChunkBytes = int(d.Int())
		case 3:
			m.Adaptive = d.Int() != 0
		case 4:
			m.Delta = d.Int() != 0
		case 5:
			m.NoCache = d.Int() != 0
		}
	}
	return d.Err()
}

// MarshalWire implements wire.Message. 1: pseudo IDs, 2: aggregated blocks,
// 3: pack factor, 4: pack bits, 5: pack adds, 6: cached block indices,
// 7: chunk-framed blocks.
func (m *CollectAllResp) MarshalWire(e *wire.Encoder) {
	e.IDs(1, m.PseudoIDs)
	e.Blobs(2, m.Aggregated)
	e.Int(3, int64(m.PackFactor))
	e.Int(4, int64(m.PackBits))
	e.Int(5, int64(m.PackAdds))
	e.IDs(6, m.CachedBlocks)
	e.Chunks(7, m.Chunked)
}

// UnmarshalWire implements wire.Message.
func (m *CollectAllResp) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			m.PseudoIDs = d.IDs()
		case 2:
			m.Aggregated = d.Blobs()
		case 3:
			m.PackFactor = int(d.Int())
		case 4:
			m.PackBits = int(d.Int())
		case 5:
			m.PackAdds = int(d.Int())
		case 6:
			m.CachedBlocks = d.IDs()
		case 7:
			m.Chunked = d.Chunks()
		}
	}
	return d.Err()
}

// MarshalWire implements wire.Message. 1: query, 2: k, 3: batch, 4: chunk
// bytes, 5: adaptive, 6: delta, 7: no-cache.
func (m *FaginCollectReq) MarshalWire(e *wire.Encoder) {
	e.Int(1, int64(m.Query))
	e.Int(2, int64(m.K))
	e.Int(3, int64(m.Batch))
	e.Int(4, int64(m.ChunkBytes))
	boolField(e, 5, m.Adaptive)
	boolField(e, 6, m.Delta)
	boolField(e, 7, m.NoCache)
}

// UnmarshalWire implements wire.Message.
func (m *FaginCollectReq) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			m.Query = int(d.Int())
		case 2:
			m.K = int(d.Int())
		case 3:
			m.Batch = int(d.Int())
		case 4:
			m.ChunkBytes = int(d.Int())
		case 5:
			m.Adaptive = d.Int() != 0
		case 6:
			m.Delta = d.Int() != 0
		case 7:
			m.NoCache = d.Int() != 0
		}
	}
	return d.Err()
}

// MarshalWire implements wire.Message. 1: rounds, 2: scan depth,
// 3: candidates.
func (m *FaginStats) MarshalWire(e *wire.Encoder) {
	e.Int(1, int64(m.Rounds))
	e.Int(2, int64(m.ScanDepth))
	e.Int(3, int64(m.Candidates))
}

// UnmarshalWire implements wire.Message.
func (m *FaginStats) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			m.Rounds = int(d.Int())
		case 2:
			m.ScanDepth = int(d.Int())
		case 3:
			m.Candidates = int(d.Int())
		}
	}
	return d.Err()
}

// MarshalWire implements wire.Message. 1: pseudo IDs, 2: aggregated blocks,
// 3: pack factor, 4: Fagin stats (nested), 5: pack bits, 6: pack adds,
// 7: cached block indices, 8: chunk-framed blocks.
func (m *FaginCollectResp) MarshalWire(e *wire.Encoder) {
	e.IDs(1, m.PseudoIDs)
	e.Blobs(2, m.Aggregated)
	e.Int(3, int64(m.PackFactor))
	e.Msg(4, &m.Stats)
	e.Int(5, int64(m.PackBits))
	e.Int(6, int64(m.PackAdds))
	e.IDs(7, m.CachedBlocks)
	e.Chunks(8, m.Chunked)
}

// UnmarshalWire implements wire.Message.
func (m *FaginCollectResp) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			m.PseudoIDs = d.IDs()
		case 2:
			m.Aggregated = d.Blobs()
		case 3:
			m.PackFactor = int(d.Int())
		case 4:
			d.Msg(&m.Stats)
		case 5:
			m.PackBits = int(d.Int())
		case 6:
			m.PackAdds = int(d.Int())
		case 7:
			m.CachedBlocks = d.IDs()
		case 8:
			m.Chunked = d.Chunks()
		}
	}
	return d.Err()
}

// MarshalWire implements wire.Message. 1: query, 2: pseudo IDs, 3: all,
// 4: pack bits, 5: delta, 6: no-cache.
func (m *ShardCollectReq) MarshalWire(e *wire.Encoder) {
	e.Int(1, int64(m.Query))
	e.IDs(2, m.PseudoIDs)
	boolField(e, 3, m.All)
	e.Int(4, int64(m.PackBits))
	boolField(e, 5, m.Delta)
	boolField(e, 6, m.NoCache)
}

// UnmarshalWire implements wire.Message.
func (m *ShardCollectReq) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			m.Query = int(d.Int())
		case 2:
			m.PseudoIDs = d.IDs()
		case 3:
			m.All = d.Int() != 0
		case 4:
			m.PackBits = int(d.Int())
		case 5:
			m.Delta = d.Int() != 0
		case 6:
			m.NoCache = d.Int() != 0
		}
	}
	return d.Err()
}

// MarshalWire implements wire.Message. 1: pseudo IDs, 2: ciphertext blocks,
// 3: pack factor, 4: pack bits, 5: need bits.
func (m *ShardCollectResp) MarshalWire(e *wire.Encoder) {
	e.IDs(1, m.PseudoIDs)
	e.Blobs(2, m.Ciphers)
	e.Int(3, int64(m.PackFactor))
	e.Int(4, int64(m.PackBits))
	e.Int(5, int64(m.NeedBits))
}

// UnmarshalWire implements wire.Message.
func (m *ShardCollectResp) UnmarshalWire(d *wire.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			m.PseudoIDs = d.IDs()
		case 2:
			m.Ciphers = d.Blobs()
		case 3:
			m.PackFactor = int(d.Int())
		case 4:
			m.PackBits = int(d.Int())
		case 5:
			m.NeedBits = int(d.Int())
		}
	}
	return d.Err()
}

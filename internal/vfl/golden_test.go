package vfl

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"vfps/internal/costmodel"
	"vfps/internal/transport"
	"vfps/internal/wire"
)

// allMessages returns one fully-populated instance of every protocol message.
// Round-trip and measurement tests iterate this list so a new message type
// that forgets its wire methods fails to compile here first.
func allMessages() []wire.Message {
	return []wire.Message{
		&PublicKeyResp{Scheme: "paillier", Key: []byte{1, 2, 3}, Parties: 3,
			MaskSeed: -77, Epsilon: 0.5, Delta: 1e-5},
		&PrivateKeyResp{Scheme: "secagg", Parties: 4, MaskSeed: 99},
		&RankingBatchReq{Query: 3, Offset: 64, Count: 32},
		&RankingBatchResp{PseudoIDs: []int{9, 4, 17, 16}}, // unsorted: negative deltas
		&EncryptAllReq{Query: 12, PackBits: 40, Delta: true, NoCache: true},
		&EncryptAllResp{PseudoIDs: []int{1, 2, 3}, Ciphers: [][]byte{{0xde, 0xad}, {0xbe}}, PackFactor: 2,
			PackBits: 36, NeedBits: 30, CachedBlocks: []int{0, 2}},
		&EncryptCandidatesReq{Query: 5, PseudoIDs: []int{100, 7}, PackBits: 20, Delta: true},
		&EncryptCandidatesResp{Ciphers: [][]byte{{1}, {2, 3}}, PackFactor: 1,
			NeedBits: 18, CachedBlocks: []int{1}},
		&NeighborSumReq{Query: 2, PseudoIDs: []int{8, 3, 11}},
		&NeighborSumResp{Sum: -2.25},
		&CountsResp{Counts: costmodel.Raw{DistanceFlops: 1, Encryptions: 2,
			Decryptions: 3, CipherAdds: 4, PlainAdds: 5, ItemsSent: 6,
			Messages: 7, BytesSent: 8, FramingBytes: 9, CacheHits: 10, CacheMisses: 11}},
		&EncryptRankScoreReq{Query: 1, Rank: 9},
		&EncryptRankScoreResp{Cipher: []byte{5, 6}},
		&AggregateCandidatesReq{Query: 4, PseudoIDs: []int{2, 1}, Adaptive: true, Delta: true, NoCache: true},
		&AggregateCandidatesResp{Aggregated: [][]byte{{9}}, PackFactor: 3,
			PackBits: 36, PackAdds: 3, CachedBlocks: []int{0}},
		&AggregateFrontierReq{Query: 6, Rank: 2},
		&AggregateFrontierResp{Cipher: []byte{7}},
		&CollectAllReq{Query: 8, ChunkBytes: 4096, Adaptive: true, Delta: true, NoCache: true},
		&CollectAllResp{PseudoIDs: []int{0, 5}, Aggregated: [][]byte{{1, 1}, {2, 2}}, PackFactor: 1,
			PackBits: 36, PackAdds: 3, CachedBlocks: []int{1}},
		&CollectAllResp{PseudoIDs: []int{0, 5}, PackFactor: 2,
			Chunked: [][][]byte{{{1, 1}}, {{2, 2}, {3}}}},
		&FaginCollectReq{Query: 7, K: 10, Batch: 32, ChunkBytes: 2048, Adaptive: true, Delta: true},
		&FaginCollectResp{PseudoIDs: []int{3, 1}, Aggregated: [][]byte{{4}}, PackFactor: 2,
			Stats: FaginStats{Rounds: 2, ScanDepth: 64, Candidates: 9}},
		&FaginCollectResp{PseudoIDs: []int{3, 1}, PackFactor: 2, PackBits: 40, PackAdds: 4,
			CachedBlocks: []int{0, 1}, Chunked: [][][]byte{{{7, 8}}},
			Stats: FaginStats{Rounds: 1, ScanDepth: 8, Candidates: 2}},
		&ShardCollectReq{Query: 11, PseudoIDs: []int{6, 2}, PackBits: 24, Delta: true, NoCache: true},
		&ShardCollectReq{Query: 11, All: true, PackBits: 24},
		&ShardCollectResp{PseudoIDs: []int{0, 3}, Ciphers: [][]byte{{0xfe}, {0xff, 1}},
			PackFactor: 2, PackBits: 30, NeedBits: 26},
	}
}

// TestGoldenVectors pins the v1 byte layout of representative messages. These
// bytes are the protocol: if any vector changes, that is a wire format break
// and needs a version bump, not a test update.
func TestGoldenVectors(t *testing.T) {
	vectors := []struct {
		msg     wire.Message
		hex     string
		payload int64
	}{
		// Envelope 00 01, then zigzag varints: 7→0e, 10→14, 32→40.
		{&FaginCollectReq{Query: 7, K: 10, Batch: 32}, "0001080e10141840", 0},
		// Zero-valued fields are omitted entirely: bare envelope.
		{&CollectAllReq{}, "0001", 0},
		// Delta-coded ID list: count 3, deltas +5, -2, +9 (zigzag 0a 03 12).
		{&RankingBatchResp{PseudoIDs: []int{5, 3, 12}}, "00010a04030a0312", 0},
		// Float64 1.5 as fixed64 little-endian bits; 8 payload bytes.
		{&NeighborSumResp{Sum: 1.5}, "000109000000000000f83f", 8},
		// Blob list: count 2, (len 2, aa bb), (len 1, cc); pack factor 2.
		{&EncryptCandidatesResp{Ciphers: [][]byte{{0xaa, 0xbb}, {0xcc}}, PackFactor: 2},
			"00010a060202aabb01cc1004", 3},
		// String field: length-prefixed UTF-8, counted as framing.
		{&PublicKeyResp{Scheme: "plain"}, "00010a05706c61696e", 0},
		// Nested message: counters as a length-delimited wireRaw sub-body.
		{&CountsResp{Counts: costmodel.Raw{Encryptions: 3, BytesSent: 500}},
			"00010a05100640e807", 0},
		// IDs + pack factor + nested FaginStats, blob field absent.
		{&FaginCollectResp{PseudoIDs: []int{1}, PackFactor: 1, Stats: FaginStats{Rounds: 2}},
			"00010a020102180222020804", 0},
		// Adaptive/delta request flags: booleans encode as varint 1 when set
		// and are omitted when clear (legacy peers skip the unknown tags).
		{&EncryptAllReq{Query: 12, PackBits: 40, Delta: true, NoCache: true},
			"00010818105018022002", 0},
		{&AggregateCandidatesReq{Query: 4, PseudoIDs: []int{2, 1}, Adaptive: true, Delta: true},
			"00010808120302040118022002", 0},
		// Delta response: a withheld block rides as a 0-length blob
		// placeholder and its index appears in the CachedBlocks ID list.
		{&EncryptAllResp{PseudoIDs: []int{4, 9}, Ciphers: [][]byte{{0xaa}, {}}, PackFactor: 2,
			PackBits: 36, NeedBits: 33, CachedBlocks: []int{1}},
			"00010a0302080a12040201aa0018042048284232020102", 1},
		// Chunked response (tag 7): uvarint chunk count, each chunk its own
		// length-prefixed blob list; the flat Aggregated field stays absent.
		{&CollectAllResp{PseudoIDs: []int{2}, PackFactor: 2, PackBits: 36, PackAdds: 3,
			Chunked: [][][]byte{{{0xaa, 0xbb}}, {{0xcc}, {}}}},
			"00010a0201041804204828063a09020102aabb0201cc00", 3},
		// Cross-round cache counters ride the nested counters sub-body.
		{&CountsResp{Counts: costmodel.Raw{CacheHits: 2, CacheMisses: 1}},
			"00010a0450045802", 0},
		// Shard collect request, candidate pattern: query, delta-coded IDs,
		// dictated pack bits, then the delta/no-cache flags.
		{&ShardCollectReq{Query: 11, PseudoIDs: []int{6, 2}, PackBits: 24, Delta: true, NoCache: true},
			"000108161203020c07203028023002", 0},
		// BASE pattern: the All flag rides tag 3, the ID list is absent.
		{&ShardCollectReq{Query: 3, All: true, PackBits: 40},
			"0001080618022050", 0},
		// Shard root: IDs + blob list + uniform geometry + NeedBits maximum.
		{&ShardCollectResp{PseudoIDs: []int{0, 3}, Ciphers: [][]byte{{0xfe}, {0xff, 1}},
			PackFactor: 2, PackBits: 30, NeedBits: 26},
			"00010a0302000612060201fe02ff011804203c2834", 3},
	}
	bin := wire.Binary()
	for _, v := range vectors {
		want, err := hex.DecodeString(v.hex)
		if err != nil {
			t.Fatal(err)
		}
		raw, payload, err := wire.MarshalMeasured(bin, v.msg)
		if err != nil {
			t.Fatalf("%T: %v", v.msg, err)
		}
		if !bytes.Equal(raw, want) {
			t.Errorf("%T encodes as %x, golden vector is %s", v.msg, raw, v.hex)
		}
		if payload != v.payload {
			t.Errorf("%T payload = %d, want %d", v.msg, payload, v.payload)
		}
		// The vector must also decode back to the original message.
		back := reflect.New(reflect.TypeOf(v.msg).Elem()).Interface().(wire.Message)
		if err := bin.Unmarshal(want, back); err != nil {
			t.Fatalf("%T: decoding golden vector: %v", v.msg, err)
		}
		if !reflect.DeepEqual(v.msg, back) {
			t.Errorf("%T golden vector decodes to %+v, want %+v", v.msg, back, v.msg)
		}
	}
}

// TestWireRoundTripAllMessages round-trips every protocol message through
// the binary codec and requires exact equality.
func TestWireRoundTripAllMessages(t *testing.T) {
	codec := wire.Binary()
	for _, msg := range allMessages() {
		raw, err := codec.Marshal(msg)
		if err != nil {
			t.Fatalf("%T: %v", msg, err)
		}
		if _, err := wire.Detect(raw); err != nil {
			t.Fatalf("%T: envelope check: %v", msg, err)
		}
		back := reflect.New(reflect.TypeOf(msg).Elem()).Interface().(wire.Message)
		if err := codec.Unmarshal(raw, back); err != nil {
			t.Fatalf("%T: %v", msg, err)
		}
		if !reflect.DeepEqual(msg, back) {
			t.Errorf("%T: round trip %+v -> %+v", msg, back, msg)
		}
	}
}

// TestMarshalMeasuredBreakdown checks the payload/framing split: payload
// (blob content plus 8 bytes per float scalar) never exceeds the encoding,
// and framing covers at least the envelope.
func TestMarshalMeasuredBreakdown(t *testing.T) {
	for _, msg := range allMessages() {
		raw, p, err := wire.MarshalMeasured(wire.Binary(), msg)
		if err != nil {
			t.Fatal(err)
		}
		if p < 0 || p > int64(len(raw)) {
			t.Errorf("%T: payload %d outside [0, %d]", msg, p, len(raw))
		}
		// framing = len(raw) - payload; the binary envelope alone is 2 bytes.
		if int64(len(raw))-p < 2 {
			t.Errorf("%T: framing %d < envelope size", msg, int64(len(raw))-p)
		}
	}
}

// TestUnknownTagSkipped pins the forward-compatibility contract: a v1 decoder
// skips fields with tags it does not know and still decodes the rest.
func TestUnknownTagSkipped(t *testing.T) {
	// FaginCollectReq body with an unknown length-delimited tag-9 field
	// spliced between query and k.
	raw, _ := hex.DecodeString("0001" + "080e" + "4a03aabbcc" + "1014")
	var r FaginCollectReq
	if err := wire.Binary().Unmarshal(raw, &r); err != nil {
		t.Fatal(err)
	}
	if r.Query != 7 || r.K != 10 || r.Batch != 0 {
		t.Fatalf("decoded %+v, want Query 7, K 10", r)
	}
}

// TestEnvelopeCheckEveryRole pins the envelope as the only version check:
// every serving role — key server, participant, aggregation server, shard
// worker — answers a request without the binary envelope (what a build that
// spoke encoding/gob sends, body-less calls included) with a typed
// wire.ErrCorrupt, and a future-version envelope with a typed rejection,
// over both the in-memory transport and TCP. Nothing is misparsed, nothing
// panics or hangs.
func TestEnvelopeCheckEveryRole(t *testing.T) {
	_, pt := testPartition(t, "Bank", 20, 4)
	cl, err := NewLocalCluster(context.Background(), ClusterConfig{
		Partition: pt, Scheme: "plain", ShuffleSeed: 7, Batch: 8, ShardWorkers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if len(cl.Workers) == 0 {
		t.Fatal("cluster built no shard workers")
	}
	roles := []struct {
		node, method string
		h            transport.Handler
		req          any // the request message a gob build would encode
	}{
		{KeyServerName, MethodPublicKey, cl.Keys.Handler(), nil},
		{PartyName(0), MethodEncryptAll, cl.Parties[0].Handler(), EncryptAllReq{Query: 3}},
		{AggServerName, MethodCollectAll, cl.Agg.Handler(), CollectAllReq{Query: 3}},
		{AggWorkerName(0), MethodShardCollect, cl.Workers[0].Handler(), ShardCollectReq{Query: 3, All: true}},
	}

	// Over TCP, each role's handler sits behind its own listener.
	dir := map[string]string{}
	for _, r := range roles {
		srv, err := transport.ListenTCP("127.0.0.1:0", r.h)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		dir[r.node] = srv.Addr()
	}
	tcp := transport.NewTCPClient(dir)
	t.Cleanup(func() { tcp.Close() })

	for _, tr := range []struct {
		name   string
		caller transport.Caller
	}{{"memory", cl.Transport}, {"tcp", tcp}} {
		for _, r := range roles {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			var gobReq []byte // a body-less gob call sends no bytes at all
			if r.req != nil {
				var buf bytes.Buffer
				if err := gob.NewEncoder(&buf).Encode(r.req); err != nil {
					t.Fatal(err)
				}
				gobReq = buf.Bytes()
			}
			for _, req := range [][]byte{gobReq, nil, {0x00, 0x00}} {
				_, err := tr.caller.Call(ctx, r.node, r.method, req)
				if !errors.Is(err, wire.ErrCorrupt) {
					t.Errorf("%s %s %s(%x): got %v, want wire.ErrCorrupt", tr.name, r.node, r.method, req, err)
				}
			}
			// A future envelope (version 2) is rejected, never misparsed:
			// typed in process, by its message over TCP.
			_, err := tr.caller.Call(ctx, r.node, r.method, []byte{0x00, 0x02})
			var uv *wire.UnsupportedVersionError
			if tr.name == "memory" && (!errors.As(err, &uv) || uv.Version != 2) {
				t.Errorf("%s accepted future envelope: err = %v", r.node, err)
			}
			if tr.name == "tcp" && (err == nil || !strings.Contains(err.Error(), "unsupported protocol version 2")) {
				t.Errorf("tcp %s accepted future envelope: err = %v", r.node, err)
			}
			cancel()
		}
	}
}

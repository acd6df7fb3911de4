GO ?= go

.PHONY: build test check race bench bench-packed bench-encrypt bench-payload bench-churn bench-mont microbench experiments fuzz cover obs-smoke soak clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Formatting and vet first, then the full suite, the ledger benchmark's own
# short tests (it is a separate module compiled against this tree's public
# names), a wire-codec fuzz smoke, and the live observability surface — the
# pre-commit gate.
check:
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then echo "gofmt needed on:"; echo "$$fmt"; exit 1; fi
	$(GO) vet ./...
	$(GO) test ./...
	cd ledgerbench && GOWORK=off $(GO) test -short .
	$(GO) test ./internal/wire -run='^$$' -fuzz='^FuzzWire$$' -fuzztime=5s
	$(GO) test ./internal/wire -run='^$$' -fuzz='^FuzzChunkedCiphertext$$' -fuzztime=5s
	$(GO) test ./internal/paillier -race
	$(GO) test ./internal/mont -race
	$(GO) test ./internal/vfl -race -run='^TestAdaptivePackSelectionIdentity$$'
	$(GO) test ./internal/vfl -race -run='^TestShardedSelectionIdentity$$'
	$(GO) test . -race -run='^TestChurnSelectionMatchesColdRebuild$$'
	$(GO) test ./internal/server -race -run='^TestConcurrentMultiConsortium$$'
	$(GO) test ./internal/paillier -run='^$$' -fuzz='^FuzzFixedBaseExp$$' -fuzztime=5s
	$(GO) test ./internal/mont -run='^$$' -fuzz='^FuzzMontMulExp$$' -fuzztime=5s
	$(MAKE) obs-smoke
	SOAK_ROUNDS=1 SOAK_QUERIES=6 SOAK_MT_ROUNDS=1 $(MAKE) soak

# Start vfpsserve, drive an encrypted selection, and assert the /metrics,
# /metrics.json, /v1/trace and /debug/vars endpoints expose every wired
# metric family (see scripts/obs_smoke.sh).
obs-smoke:
	./scripts/obs_smoke.sh

# Multi-process soak: key server + parties + aggregation shard workers +
# aggregation server + a vfpsserve collector over real TCP, concurrent query
# rounds through the leader, gated on throughput (SOAK_MIN_QPS), tail
# latency (SOAK_P99_MS), a cross-process span forest with zero orphans, and
# the structured query log; then the multi-tenant load arm — an
# admission-controlled vfpsserve multiplexing sharded consortiums — gated on
# concurrent-vs-sequential speedup (SOAK_MIN_MT_SPEEDUP, scaled to the core
# count), concurrent p99 (SOAK_MT_P99_MS), and admission accounting
# (see scripts/soak.sh for all knobs).
soak:
	./scripts/soak.sh

race:
	$(GO) test ./... -race

# Benchmark the parallel HE pipeline (serial vs worker-pool vs pooled
# randomizers, plus end-to-end selection) and record it for comparison.
bench:
	$(GO) run ./cmd/vfpsbench -exp parallel -json BENCH_parallel.json

# Benchmark the batched Paillier hot path (CRT decryption, slot-packed
# ciphertexts, packed end-to-end selection) and gate the result against the
# checked-in baseline: identical selections, ≥4x fewer ciphertext bytes,
# ≥3x CRT decrypt speedup, and no packed wall-clock regression.
bench-packed:
	$(GO) run ./cmd/vfpsbench -exp packed -json BENCH_packed.json
	./scripts/bench_compare.sh BENCH_packed.json

# Benchmark the encryption hot path (classic vs fixed-base windowed vs CRT vs
# pooled randomizer production, the Montgomery kernel A/B on modmul- and
# modexp-bound arms, plus end-to-end selections under each pool mode) and gate
# the result: ≥2x windowed encrypt speedup, ≥1.5x Montgomery speedup on the
# modmul-bound arms with decrypt parity, and selections identical to classic
# uniform sampling on every arm including mont-off.
bench-encrypt:
	$(GO) run ./cmd/vfpsbench -exp encrypt -json BENCH_encrypt.json
	./scripts/bench_compare.sh BENCH_encrypt.json

# Benchmark the ciphertext-payload optimizations (adaptive pack factor,
# chunked streaming, cross-round delta cache) over repeated Fagin selections
# and gate the result: every arm selects the identical set, and the fully
# optimized arm cuts steady-state ciphertext bytes by ≥3x over static packing.
bench-payload:
	$(GO) run ./cmd/vfpsbench -exp payload -json BENCH_payload.json
	./scripts/bench_compare.sh BENCH_payload.json

# Benchmark online membership churn (in-place join/leave, set-keyed
# similarity reuse) and gate the result: the
# incremental join pays ≥2x fewer encryptions than a cold rebuild at 6+
# surviving parties, every churn arm selects bit-identically to its cold
# twin, and a roster revisit through the similarity cache pays 0 HE ops.
bench-churn:
	$(GO) run ./cmd/vfpsbench -exp churn -json BENCH_churn.json
	./scripts/bench_compare.sh BENCH_churn.json

# Go-test microbenchmarks of the Montgomery kernel alone: CIOS multiply and
# square vs big.Int Mul+Mod, windowed exponentiation vs big.Int.Exp, with
# allocation counts (the hot ops must report 0 allocs/op).
bench-mont:
	$(GO) test ./internal/mont -run='^$$' -bench=. -benchmem

# Go-test microbenchmarks across all packages.
microbench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every paper table/figure plus the extension studies.
experiments:
	$(GO) run ./cmd/vfpsbench -exp all -rows 2000 -queries 16 -epochs 20

cover:
	$(GO) test ./... -coverprofile=cover.out && $(GO) tool cover -func=cover.out | tail -1

fuzz:
	$(GO) test ./internal/dataset -run='^$$' -fuzz=FuzzLoadCSV -fuzztime=30s
	$(GO) test ./internal/transport -run='^$$' -fuzz=FuzzReadRequest -fuzztime=30s
	$(GO) test ./internal/wire -run='^$$' -fuzz='^FuzzWire$$' -fuzztime=30s
	$(GO) test ./internal/paillier -run='^$$' -fuzz='^FuzzFixedBaseExp$$' -fuzztime=30s
	$(GO) test ./internal/mont -run='^$$' -fuzz='^FuzzMontMulExp$$' -fuzztime=30s

clean:
	rm -f cover.out vfpsbench vfpsnode vfpsselect vfpsserve SOAK_summary.json

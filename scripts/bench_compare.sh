#!/usr/bin/env bash
# bench_compare.sh — gate the hot-path benchmarks against regressions.
#
# Usage:
#   scripts/bench_compare.sh [candidate.json] [baseline.json]
#
# The candidate JSON's top-level key picks the gate set; a candidate with no
# recognized top-level key (.packed / .encrypt / .payload / .churn / .soak), and any recognized section missing a key the gates read, is itself a
# hard failure — a renamed or dropped field must never silently pass. A `.packed` result (default
# BENCH_packed.json, freshly produced by `make bench-packed`) must uphold the
# absolute contracts of the packed pipeline regardless of machine:
#
#   * every end-to-end selection matches the scalar run exactly,
#   * slot packing cuts ciphertext bytes by at least MIN_BYTE_REDUCTION,
#   * CRT decryption is at least MIN_CRT_SPEEDUP over the λ/μ path.
#
# A `.encrypt` result (BENCH_encrypt.json, from `make bench-encrypt`) must
# show:
#
#   * fixed-base windowed randomizer production at least MIN_ENCRYPT_SPEEDUP
#     over the classic inline path (the party-side encryption throughput
#     contract),
#   * the Montgomery kernel at least MIN_MONT_SPEEDUP over pure math/big on
#     the modmul-bound arms (windowed encryption, ciphertext summation), and
#     no worse than MIN_MONT_DECRYPT_RATIO on the modexp-bound CRT decrypt
#     arm (big.Int.Exp already runs Montgomery internally, so parity — not a
#     speedup — is the contract there; see DESIGN.md §12),
#   * every end-to-end selection — windowed pools, shared PoolSet, and the
#     mont-off arm proving both arithmetic backends select identically —
#     matching the classic-sampling baseline exactly.
#
# A `.payload` result (BENCH_payload.json, from `make bench-payload`) must
# show:
#
#   * every arm — static, adaptive, chunked, delta, full — selecting the
#     identical participant set,
#   * the fully optimized arm (adaptive pack + chunked streaming + delta
#     cache) cutting steady-state ciphertext payload bytes by at least
#     MIN_PAYLOAD_REDUCTION over static packing,
#   * delta-cache hits actually recorded on the delta arms.
#
# A `.churn` result (BENCH_churn.json, from `make bench-churn`) must show:
#
#   * the in-place join paying at least MIN_CHURN_HE_REDUCTION fewer
#     encryptions than a cold rebuild at the same final membership (the
#     delta cache spares every survivor; the base roster is floored at 6),
#   * every churn arm — join, leave, roster revisit — selecting
#     bit-identically to its cold twin,
#   * the roster revisit through the set-keyed similarity cache paying
#     exactly 0 HE operations.
#
# A `.soak` result (SOAK_summary.json, from `make soak`) must carry the full
# key set the soak gates computed — queries, qps, p50Ms, p99Ms, processes,
# plus the multi-tenant arm's shardWorkers, mtSelections, mtSeqQps,
# mtConcQps, mtSpeedup, mtSpeedupFloor, mtP99Ms, admitted, rejected — plus
# sanity floors (the latency/throughput gates themselves fire inside
# scripts/soak.sh, where the raw query log lives):
#
#   * at least one query was driven and throughput is positive,
#   * the distinguished trace spans at least 3 distinct processes,
#   * the multi-tenant concurrent/sequential speedup meets its recorded
#     floor, and that floor is itself >= 0.9 (so an override can tune the
#     gate for the machine's core count but never disable it),
#   * admission accounting is live: every load selection admitted and the
#     budget probe rejected at least once.
#
# When a baseline (default: the checked-in BENCH_packed.json from git HEAD)
# is available and distinct from the candidate, the packed end-to-end wall
# clocks must also stay within TOLERANCE of it. Wall clocks are machine
# dependent, so the relative gate only fires when the baseline was produced
# on a comparable machine; the absolute gates always fire.
set -euo pipefail

CANDIDATE=${1:-BENCH_packed.json}
BASELINE=${2:-}
MIN_CRT_SPEEDUP=${MIN_CRT_SPEEDUP:-3.0}
MIN_BYTE_REDUCTION=${MIN_BYTE_REDUCTION:-4.0}
MIN_ENCRYPT_SPEEDUP=${MIN_ENCRYPT_SPEEDUP:-2.0}
MIN_MONT_SPEEDUP=${MIN_MONT_SPEEDUP:-1.5}
MIN_MONT_DECRYPT_RATIO=${MIN_MONT_DECRYPT_RATIO:-0.9}
MIN_PAYLOAD_REDUCTION=${MIN_PAYLOAD_REDUCTION:-3.0}
MIN_CHURN_HE_REDUCTION=${MIN_CHURN_HE_REDUCTION:-2.0}
TOLERANCE=${TOLERANCE:-1.5}

command -v jq >/dev/null || { echo "bench_compare: jq not found" >&2; exit 1; }
[ -f "$CANDIDATE" ] || { echo "bench_compare: candidate $CANDIDATE not found (run make bench-packed / bench-encrypt / bench-payload / bench-churn)" >&2; exit 1; }

fail=0
say() { echo "bench_compare: $*"; }
bad() { echo "bench_compare: FAIL: $*" >&2; fail=1; }

# require <jq-expr> <description> — assert the candidate carries a key the
# gates below read. jq -e exits non-zero on null/false/missing, so a renamed
# field, an empty result array or a dropped arm fails loudly instead of
# letting its gate silently evaporate. Returns non-zero so callers can skip
# the dependent gate and avoid a cascade of jq errors.
require() {
  if ! jq -e "$1" "$CANDIDATE" >/dev/null 2>&1; then
    bad "candidate is missing expected data: $2 (jq: $1)"
    return 1
  fi
}

recognized=0

# --- encryption hot-path gates -----------------------------------------------
if jq -e '.encrypt' "$CANDIDATE" >/dev/null 2>&1; then
  recognized=1
  if require '.encrypt.Micro.WindowedSpeedup' "windowed encrypt speedup"; then
    wsp=$(jq -r '.encrypt.Micro.WindowedSpeedup' "$CANDIDATE")
    csp=$(jq -r '.encrypt.Micro.CRTWindowedSpeedup // "?"' "$CANDIDATE")
    jq -e --argjson min "$MIN_ENCRYPT_SPEEDUP" '.encrypt.Micro.WindowedSpeedup >= $min' "$CANDIDATE" >/dev/null \
      && say "windowed encrypt speedup ${wsp}x (floor ${MIN_ENCRYPT_SPEEDUP}x; CRT+window ${csp}x)" \
      || bad "windowed encrypt speedup ${wsp}x below floor ${MIN_ENCRYPT_SPEEDUP}x"
  fi

  # Montgomery kernel A/B: ≥ MIN_MONT_SPEEDUP on the modmul-bound arms,
  # ≥ MIN_MONT_DECRYPT_RATIO (parity) on the modexp-bound decrypt arm.
  for arm in MontWindowedSpeedup MontSumSpeedup; do
    if require ".encrypt.Micro.$arm" "Montgomery A/B arm $arm"; then
      v=$(jq -r ".encrypt.Micro.$arm" "$CANDIDATE")
      jq -e --argjson min "$MIN_MONT_SPEEDUP" ".encrypt.Micro.$arm >= \$min" "$CANDIDATE" >/dev/null \
        && say "mont kernel $arm ${v}x (floor ${MIN_MONT_SPEEDUP}x)" \
        || bad "mont kernel $arm ${v}x below floor ${MIN_MONT_SPEEDUP}x"
    fi
  done
  if require '.encrypt.Micro.MontDecryptRatio' "Montgomery A/B arm MontDecryptRatio"; then
    v=$(jq -r '.encrypt.Micro.MontDecryptRatio' "$CANDIDATE")
    jq -e --argjson min "$MIN_MONT_DECRYPT_RATIO" '.encrypt.Micro.MontDecryptRatio >= $min' "$CANDIDATE" >/dev/null \
      && say "mont kernel CRT decrypt ratio ${v}x (parity floor ${MIN_MONT_DECRYPT_RATIO}x)" \
      || bad "mont kernel CRT decrypt ratio ${v}x below parity floor ${MIN_MONT_DECRYPT_RATIO}x"
  fi

  if require '.encrypt.EndToEnd | length > 0' "encrypt end-to-end rows"; then
    require '[.encrypt.EndToEnd[] | select(.Mode == "mont-off")] | length > 0' \
      "mont-off end-to-end arm (backend selection-identity proof)" || true
    while IFS=$'\t' read -r variant mode match; do
      if [ "$match" = "true" ]; then
        say "selection $variant/$mode: selected the identical set"
      else
        bad "selection $variant/$mode: selected a DIFFERENT set than classic sampling"
      fi
    done < <(jq -r '.encrypt.EndToEnd[] | [.Variant, .Mode, (.SelectedMatch|tostring)] | @tsv' "$CANDIDATE")
  fi
fi

# --- ciphertext payload gates ------------------------------------------------
if jq -e '.payload' "$CANDIDATE" >/dev/null 2>&1; then
  recognized=1
  if require '.payload.Arms | length > 0' "payload benchmark arms"; then
    while IFS=$'\t' read -r arm match; do
      if [ "$match" = "true" ]; then
        say "payload arm $arm: selected the identical set"
      else
        bad "payload arm $arm: selected a DIFFERENT set than static packing"
      fi
    done < <(jq -r '.payload.Arms[] | [.Name, (.SelectedMatch|tostring)] | @tsv' "$CANDIDATE")

    # Delta-cache arms must actually hit the cache; an optimization that
    # never engages would still "match" trivially.
    while IFS=$'\t' read -r arm hits; do
      if [ "$hits" -gt 0 ]; then
        say "payload arm $arm: $hits delta-cache hits in the steady state"
      else
        bad "payload arm $arm: delta cache enabled but zero hits recorded"
      fi
    done < <(jq -r '.payload.Arms[] | select(.Delta == true) | [.Name, (.CacheHits|tostring)] | @tsv' "$CANDIDATE")
  fi

  if require '.payload.Reduction' "payload steady-state reduction"; then
    red=$(jq -r '.payload.Reduction' "$CANDIDATE")
    total=$(jq -r '.payload.TotalReduction // "?"' "$CANDIDATE")
    jq -e --argjson min "$MIN_PAYLOAD_REDUCTION" '.payload.Reduction >= $min' "$CANDIDATE" >/dev/null \
      && say "payload steady-state reduction ${red}x (floor ${MIN_PAYLOAD_REDUCTION}x; all-rounds ${total}x)" \
      || bad "payload steady-state reduction ${red}x below floor ${MIN_PAYLOAD_REDUCTION}x"
  fi
fi

# --- membership churn gates --------------------------------------------------
if jq -e '.churn' "$CANDIDATE" >/dev/null 2>&1; then
  recognized=1
  for key in ColdEncryptions JoinEncryptions HEReduction BaseParties; do
    require ".churn.${key}" "churn key ${key}" || true
  done
  if require '.churn.HEReduction' "churn HE-op reduction"; then
    red=$(jq -r '.churn.HEReduction' "$CANDIDATE")
    cold=$(jq -r '.churn.ColdEncryptions // "?"' "$CANDIDATE")
    joine=$(jq -r '.churn.JoinEncryptions // "?"' "$CANDIDATE")
    # The survivor-reuse contract only binds at non-trivial rosters; the
    # benchmark floors the base membership at 6, and the gate re-checks it so
    # a shrunken run can never pass trivially.
    jq -e '.churn.BaseParties >= 6' "$CANDIDATE" >/dev/null \
      || bad "churn base roster $(jq -r '.churn.BaseParties' "$CANDIDATE") below the 6-party floor"
    jq -e --argjson min "$MIN_CHURN_HE_REDUCTION" '.churn.HEReduction >= $min' "$CANDIDATE" >/dev/null \
      && say "incremental join cut encryptions ${red}x (cold $cold vs join $joine, floor ${MIN_CHURN_HE_REDUCTION}x)" \
      || bad "incremental join cut encryptions only ${red}x (cold $cold vs join $joine), floor ${MIN_CHURN_HE_REDUCTION}x"
  fi
  for arm in JoinMatch LeaveMatch RevisitMatch; do
    if require ".churn.${arm}" "churn identity flag ${arm}"; then
      if [ "$(jq -r ".churn.${arm}" "$CANDIDATE")" = "true" ]; then
        say "churn arm ${arm%Match}: selected bit-identically to its cold twin"
      else
        bad "churn arm ${arm%Match}: selected a DIFFERENT set than its cold twin"
      fi
    fi
  done
  if require '.churn | has("RevisitHEOps")' "churn revisit HE-op count"; then
    ops=$(jq -r '.churn.RevisitHEOps' "$CANDIDATE")
    jq -e '.churn.RevisitHEOps == 0' "$CANDIDATE" >/dev/null \
      && say "roster revisit paid 0 HE ops through the set-keyed similarity cache" \
      || bad "roster revisit still paid $ops HE ops — the similarity cache did not engage"
  fi
fi

# --- soak summary gates ------------------------------------------------------
if jq -e '.soak' "$CANDIDATE" >/dev/null 2>&1; then
  recognized=1
  # Require every key the soak harness gates on, so a renamed summary field
  # can never turn the soak into a silent no-op.
  soak_ok=1
  for key in queries qps p50Ms p99Ms processes shardWorkers mtSelections \
             mtSeqQps mtConcQps mtSpeedup mtSpeedupFloor mtP99Ms admitted rejected; do
    require ".soak.${key}" "soak summary key ${key}" || soak_ok=0
  done
  if [ "$soak_ok" -eq 1 ]; then
    qn=$(jq -r '.soak.queries' "$CANDIDATE")
    qps=$(jq -r '.soak.qps' "$CANDIDATE")
    p50=$(jq -r '.soak.p50Ms' "$CANDIDATE")
    p99=$(jq -r '.soak.p99Ms' "$CANDIDATE")
    procs=$(jq -r '.soak.processes' "$CANDIDATE")
    jq -e '.soak.queries >= 1 and .soak.qps > 0' "$CANDIDATE" >/dev/null \
      && say "soak drove $qn queries at $qps q/s (p50 ${p50}ms, p99 ${p99}ms)" \
      || bad "soak summary shows no throughput ($qn queries at $qps q/s)"
    jq -e '.soak.processes >= 3' "$CANDIDATE" >/dev/null \
      && say "soak trace spans $procs distinct processes (floor 3)" \
      || bad "soak trace spans only $procs distinct processes, want >= 3"

    mtsels=$(jq -r '.soak.mtSelections' "$CANDIDATE")
    mtspeed=$(jq -r '.soak.mtSpeedup' "$CANDIDATE")
    mtfloor=$(jq -r '.soak.mtSpeedupFloor' "$CANDIDATE")
    mtp99=$(jq -r '.soak.mtP99Ms' "$CANDIDATE")
    admitted=$(jq -r '.soak.admitted' "$CANDIDATE")
    rejected=$(jq -r '.soak.rejected' "$CANDIDATE")
    jq -e '.soak.mtSelections >= 1 and .soak.mtConcQps > 0' "$CANDIDATE" >/dev/null \
      && say "multi-tenant arm drove $mtsels concurrent selections (p99 ${mtp99}ms)" \
      || bad "multi-tenant arm shows no concurrent throughput"
    # The floor itself is part of the contract: a per-machine override may
    # relax the core-scaled default, but never below break-even minus 10%.
    jq -e '.soak.mtSpeedupFloor >= 0.9' "$CANDIDATE" >/dev/null \
      || bad "multi-tenant speedup floor $mtfloor below 0.9 — the gate has been defeated"
    jq -e '.soak.mtSpeedup >= .soak.mtSpeedupFloor' "$CANDIDATE" >/dev/null \
      && say "multi-tenant speedup ${mtspeed}x meets its recorded floor ${mtfloor}x" \
      || bad "multi-tenant speedup ${mtspeed}x below its recorded floor ${mtfloor}x"
    jq -e '.soak.admitted >= .soak.mtSelections' "$CANDIDATE" >/dev/null \
      && say "admission admitted $admitted selections (>= $mtsels load selections)" \
      || bad "admission admitted only $admitted of $mtsels load selections"
    jq -e '.soak.rejected >= 1' "$CANDIDATE" >/dev/null \
      && say "admission budget probe recorded $rejected rejection(s)" \
      || bad "admission budget probe recorded no rejection"
  fi
fi

if ! jq -e '.packed' "$CANDIDATE" >/dev/null 2>&1; then
  if [ "$recognized" -eq 0 ]; then
    bad "candidate $CANDIDATE has no recognized top-level section (.packed / .encrypt / .payload / .churn / .soak)"
  fi
  if [ "$fail" -ne 0 ]; then
    echo "bench_compare: REGRESSION DETECTED" >&2
    exit 1
  fi
  say "all gates passed"
  exit 0
fi

# --- absolute gates on the candidate ----------------------------------------
if require '.packed.CRT.Speedup' "packed CRT speedup"; then
  crt=$(jq -r '.packed.CRT.Speedup' "$CANDIDATE")
  jq -e --argjson min "$MIN_CRT_SPEEDUP" '.packed.CRT.Speedup >= $min' "$CANDIDATE" >/dev/null \
    && say "CRT decrypt speedup ${crt}x (floor ${MIN_CRT_SPEEDUP}x)" \
    || bad "CRT decrypt speedup ${crt}x below floor ${MIN_CRT_SPEEDUP}x"
fi

if require '.packed.Wire.ByteReduction' "packed byte reduction"; then
  bytered=$(jq -r '.packed.Wire.ByteReduction' "$CANDIDATE")
  packf=$(jq -r '.packed.Wire.PackFactor // "?"' "$CANDIDATE")
  jq -e --argjson min "$MIN_BYTE_REDUCTION" '.packed.Wire.ByteReduction >= $min' "$CANDIDATE" >/dev/null \
    && say "ciphertext byte reduction ${bytered}x at pack factor ${packf} (floor ${MIN_BYTE_REDUCTION}x)" \
    || bad "byte reduction ${bytered}x below floor ${MIN_BYTE_REDUCTION}x"
fi

if require '.packed.EndToEnd | length > 0' "packed end-to-end rows"; then
  while IFS=$'\t' read -r variant match; do
    if [ "$match" = "true" ]; then
      say "selection $variant: packed run selected the identical set"
    else
      bad "selection $variant: packed run selected a DIFFERENT set"
    fi
  done < <(jq -r '.packed.EndToEnd[] | [.Variant, (.SelectedMatch|tostring)] | @tsv' "$CANDIDATE")

  while IFS=$'\t' read -r variant scalar packed; do
    if jq -n --argjson s "$scalar" --argjson p "$packed" '$p < $s' >/dev/null 2>&1 \
       && [ "$(jq -n --argjson s "$scalar" --argjson p "$packed" '$p < $s')" = "true" ]; then
      say "selection $variant: packed bytes $packed < scalar bytes $scalar"
    else
      bad "selection $variant: packed run sent $packed bytes, scalar $scalar"
    fi
  done < <(jq -r '.packed.EndToEnd[] | [.Variant, (.BytesScalar|tostring), (.BytesPacked|tostring)] | @tsv' "$CANDIDATE")
fi

# --- relative gate against the baseline -------------------------------------
cleanup=""
if [ -z "$BASELINE" ]; then
  # Default baseline: the checked-in copy of the candidate's own file at git
  # HEAD. A brand-new benchmark section has no checked-in baseline on its
  # first run — that is fine: the absolute gates above already fired, so the
  # relative gate just skips instead of failing the run.
  cname=$(basename "$CANDIDATE")
  if git cat-file -e "HEAD:$cname" 2>/dev/null; then
    BASELINE=$(mktemp)
    cleanup=$BASELINE
    git show "HEAD:$cname" > "$BASELINE"
  else
    say "no checked-in baseline for $cname at HEAD (first run of this benchmark section) — skipping relative gate"
  fi
fi
if [ -n "$BASELINE" ] && [ -f "$BASELINE" ] && ! cmp -s "$CANDIDATE" "$BASELINE" \
   && jq -e '.packed.EndToEnd | length > 0' "$BASELINE" >/dev/null 2>&1; then
  while IFS=$'\t' read -r variant cand base; do
    limit=$(jq -n --argjson b "$base" --argjson t "$TOLERANCE" '$b * $t')
    if [ "$(jq -n --argjson c "$cand" --argjson l "$limit" '$c <= $l')" = "true" ]; then
      say "selection $variant: packed wall clock ${cand}s within ${TOLERANCE}x of baseline ${base}s"
    else
      bad "selection $variant: packed wall clock ${cand}s regressed past ${TOLERANCE}x baseline ${base}s"
    fi
  done < <(join -t $'\t' \
      <(jq -r '.packed.EndToEnd[] | [.Variant, (.PackedSeconds|tostring)] | @tsv' "$CANDIDATE" | sort) \
      <(jq -r '.packed.EndToEnd[] | [.Variant, (.PackedSeconds|tostring)] | @tsv' "$BASELINE" | sort))
else
  say "no distinct baseline — skipping relative wall-clock gate"
fi
[ -n "$cleanup" ] && rm -f "$cleanup"

if [ "$fail" -ne 0 ]; then
  echo "bench_compare: REGRESSION DETECTED" >&2
  exit 1
fi
say "all gates passed"

#!/bin/sh
#===-- tests/bench_smoke.sh - End-to-end cws-bench smoke test ------------===#
#
# Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
# Scheduling" (PaCT 2009). Distributed without any warranty.
#
# Usage: bench_smoke.sh <cws-bench> <cws-sim> <cws-report>
#
# Pins the perf-trajectory acceptance properties end to end:
#  1. BENCH_*.json work counters and config hashes are byte-identical
#     from run to run (the determinism contract that makes the ratchet
#     honest on any host);
#  2. a clean `--against` rerun exits 0 — wall-time wobble never gates;
#  3. an injected work-counter regression exits 1 and names the counter;
#  4. tampering only with wall-time statistics still exits 0;
#  5. a config-hash (identity) mismatch is refused with exit 2;
#  6. a bench without a baseline file is refused with exit 2;
#  7. the exit-code convention holds on unknown flags / empty filters;
#  8. cws-sim --profile + cws-report --profile round-trip: the report
#     renders the phase table and phase.* SLO rules gate on it.
#
#===----------------------------------------------------------------------===#
set -eu

BENCH=$1
SIM=$2
REPORT=$3
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail() {
  echo "bench_smoke: $1" >&2
  exit 1
}

# The quickest registered bench keeps the smoke fast; strategy build is
# a pure single-run workload.
NAME=strategy_build_throughput

#=== 1. Work counters are the same from run to run =======================#
run_cell() {
  # $1 = out dir
  "$BENCH" --filter "$NAME" --reps 1 --warmup 0 --out "$1" > /dev/null \
    || fail "bench run failed ($1)"
  [ -f "$1/BENCH_$NAME.json" ] || fail "no BENCH_$NAME.json in $1"
}
run_cell "$TMP/t1"
run_cell "$TMP/t2"

# Strip the measured wall-time statistics and per-cell provenance (cli)
# and compare what must be deterministic: the identity fields, every
# work-counter object (bench and per-phase), the phase counts, and the
# check outcomes.
stable() {
  grep -o '"config_hash": "[^"]*"' "$1"
  grep -o '"seed": [0-9]*' "$1"
  grep -o '"exec_seed": [0-9]*' "$1"
  grep -o '"work": {[^}]*}' "$1"
  grep -o '"name": "[^"]*", "count": [0-9]*' "$1"
  grep -o '"what": "[^"]*", "pass": [a-z]*' "$1"
}
stable "$TMP/t1/BENCH_$NAME.json" > "$TMP/ref.stable"
stable "$TMP/t2/BENCH_$NAME.json" > "$TMP/t2.stable"
cmp -s "$TMP/ref.stable" "$TMP/t2.stable" \
  || fail "work counters diverged between two runs"

#=== 2. Clean rerun against the baseline exits 0 =========================#
"$BENCH" --filter "$NAME" --reps 1 --warmup 0 --out "$TMP/new" \
         --against "$TMP/t1" > "$TMP/clean.txt" \
  || fail "clean --against rerun gated (wall wobble must be advisory)"
grep -q "$NAME" "$TMP/clean.txt" || fail "comparison output lacks the bench"

#=== 3. Injected work regression exits 1 =================================#
mkdir "$TMP/badwork"
sed 's/"variants_total": *[0-9]*/"variants_total": 99999/' \
    "$TMP/t1/BENCH_$NAME.json" > "$TMP/badwork/BENCH_$NAME.json"
STATUS=0
"$BENCH" --filter "$NAME" --reps 1 --warmup 0 --out "$TMP/new2" \
         --against "$TMP/badwork" > "$TMP/reg.txt" || STATUS=$?
[ "$STATUS" -eq 1 ] || fail "work regression exited $STATUS, expected 1"
grep -q "variants_total" "$TMP/reg.txt" \
  || fail "regression output does not name the work counter"

#=== 4. Wall-time-only tamper stays advisory (exit 0) ====================#
mkdir "$TMP/badwall"
sed '/"wall_us"/,/}/s/\("mean": *\)[0-9.e+-]*/\19999999/' \
    "$TMP/t1/BENCH_$NAME.json" > "$TMP/badwall/BENCH_$NAME.json"
"$BENCH" --filter "$NAME" --reps 1 --warmup 0 --out "$TMP/new3" \
         --against "$TMP/badwall" > /dev/null \
  || fail "wall-time-only shift gated; metrics must stay advisory"

#=== 5. Identity mismatch is refused (exit 2) ============================#
mkdir "$TMP/badhash"
sed 's/"config_hash": *"0x/"config_hash": "0y/' \
    "$TMP/t1/BENCH_$NAME.json" > "$TMP/badhash/BENCH_$NAME.json"
STATUS=0
"$BENCH" --filter "$NAME" --reps 1 --warmup 0 --out "$TMP/new4" \
         --against "$TMP/badhash" > "$TMP/ref.txt" || STATUS=$?
[ "$STATUS" -eq 2 ] || fail "identity mismatch exited $STATUS, expected 2"
grep -q "config_hash" "$TMP/ref.txt" \
  || fail "refusal does not name the mismatched field"

#=== 6. A missing baseline is refused (exit 2) ===========================#
mkdir "$TMP/empty"
STATUS=0
"$BENCH" --filter "$NAME" --reps 1 --warmup 0 --out "$TMP/new5" \
         --against "$TMP/empty" > "$TMP/missing.txt" || STATUS=$?
[ "$STATUS" -eq 2 ] || fail "missing baseline exited $STATUS, expected 2"
grep -q "no baseline" "$TMP/missing.txt" \
  || fail "refusal does not name the missing baseline"

#=== 7. Exit-code convention =============================================#
STATUS=0; "$BENCH" --bogus 2> /dev/null || STATUS=$?
[ "$STATUS" -eq 2 ] || fail "unknown flag exited $STATUS, expected 2"
STATUS=0
"$BENCH" --filter no_such_bench --out "$TMP/none" 2> /dev/null || STATUS=$?
[ "$STATUS" -eq 2 ] || fail "empty filter exited $STATUS, expected 2"

#=== 8. Profile round trip through cws-report ============================#
"$SIM" --jobs 15 --seed 3 --journal "$TMP/run.jsonl" \
       --profile "$TMP/profile.json" > /dev/null 2>&1 \
  || fail "cws-sim --profile failed"
cat > "$TMP/run.slo" <<'EOF'
# Phase budgets gate only when a profile is attached.
phase.sim.tick.count <= 1000000
phase.chain.dp.self_us >= 0
EOF
"$REPORT" --journal "$TMP/run.jsonl" --profile "$TMP/profile.json" \
          --slo "$TMP/run.slo" > "$TMP/report.md" \
  || fail "phase SLO rules breached with a profile attached"
grep -q "## Where the time went" "$TMP/report.md" \
  || fail "report lacks the phase-profile section"
grep -q "chain.dp" "$TMP/report.md" \
  || fail "phase table lacks the DP phase"
STATUS=0
"$REPORT" --journal "$TMP/run.jsonl" --slo "$TMP/run.slo" \
          > /dev/null 2> "$TMP/noprof.err" || STATUS=$?
[ "$STATUS" -eq 1 ] || fail "phase rules without a profile exited $STATUS, expected 1 (fail closed)"
grep -q "SLO breach: phase.chain.dp.self_us: phase indicators need --profile" \
     "$TMP/noprof.err" \
  || fail "fail-closed breach does not name the phase indicator and why"

echo "bench smoke ok"

#!/bin/sh
#===-- tests/sweep_smoke.sh - End-to-end sweep harness smoke test --------===#
#
# Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
# Scheduling" (PaCT 2009). Distributed without any warranty.
#
# Usage: sweep_smoke.sh <cws-sim> <cws-sweep> <cws-report> <cws-diff>
#
# Pins the sweep harness acceptance properties end to end:
#  1. a 1-scenario 1-seed sweep reproduces the direct single run — the
#     spawned run's journal and telemetry semantically match a direct
#     cws-sim invocation (cws-diff, journal + series modes);
#  2. pooled statistics are identical at any --workers value
#     (cws-diff sweep mode);
#  3. quantile SLO rules gate the exit code: 0 on sane bounds, exactly 1
#     on a forced breach (for cws-report --sweep and cws-sweep alike);
#  4. a run whose journal ring dropped events is refused with exit 2,
#     naming the run and its dropped count.
#
#===----------------------------------------------------------------------===#
set -eu

SIM=$1
SWEEP=$2
REPORT=$3
DIFF=$4
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail() {
  echo "sweep_smoke: $1" >&2
  exit 1
}

#=== 1. 1x1 sweep == direct run, semantically ============================#
cat > "$TMP/one.grid" <<EOF
axis strategy S1
seeds 1
base_seed 42
jobs 10
EOF
"$SWEEP" --grid "$TMP/one.grid" --workers 2 --out "$TMP/one.csv" \
         --runs-dir "$TMP/onerun" --keep-runs 1 --quiet 1 > /dev/null \
  || fail "1x1 sweep failed"
# The exact invocation the sweep spawns for its single run. Only the
# CLI text (different artifact paths) may differ — cws-diff's default
# meta policy allows exactly that.
"$SIM" --strategy S1 --jobs 10 --scenario strategy=S1 --seed 42 \
       --journal "$TMP/dj.jsonl" --timeseries "$TMP/dt.csv" \
       > /dev/null 2>&1 || fail "direct cws-sim run failed"
"$DIFF" "$TMP/onerun/run-0.journal.jsonl" "$TMP/dj.jsonl" > /dev/null \
  || fail "1x1 sweep journal differs from the direct single-run journal"
"$DIFF" "$TMP/onerun/run-0.ts.csv" "$TMP/dt.csv" > /dev/null \
  || fail "1x1 sweep telemetry differs from the direct single-run series"
# And the rendered reports agree too.
"$REPORT" --journal "$TMP/onerun/run-0.journal.jsonl" \
          --timeseries "$TMP/onerun/run-0.ts.csv" \
          --out "$TMP/sweeprep.md" || fail "report on sweep artifacts failed"
"$REPORT" --journal "$TMP/dj.jsonl" --timeseries "$TMP/dt.csv" \
          --out "$TMP/directrep.md" || fail "report on direct run failed"
diff "$TMP/sweeprep.md" "$TMP/directrep.md" > /dev/null \
  || fail "1x1 sweep report differs from the direct single-run report"

#=== 2. Worker-count independence ========================================#
cat > "$TMP/mini.grid" <<EOF
axis arrival_scale 1.0 2.0
axis strategy S1 S2
seeds 2
base_seed 42
jobs 8
EOF
"$SWEEP" --grid "$TMP/mini.grid" --workers 1 --out "$TMP/w1.csv" \
         --runs-dir "$TMP/r1" --quiet 1 > /dev/null \
  || fail "sweep with 1 worker failed"
"$SWEEP" --grid "$TMP/mini.grid" --workers 4 --out "$TMP/w4.csv" \
         --runs-dir "$TMP/r4" --quiet 1 > /dev/null \
  || fail "sweep with 4 workers failed"
"$DIFF" "$TMP/w1.csv" "$TMP/w4.csv" > /dev/null \
  || fail "pooled statistics depend on the worker count"

#=== 3. Quantile SLO gating ==============================================#
cat > "$TMP/pass.slo" <<EOF
deadline_miss_rate.p90 <= 1.0 across seeds
commit_rate.max >= 0.0
EOF
"$REPORT" --sweep "$TMP/w1.csv" --slo "$TMP/pass.slo" > /dev/null \
  || fail "sane quantile SLO did not pass"

cat > "$TMP/breach.slo" <<EOF
commit_rate.p50 >= 1.5 across seeds
EOF
STATUS=0
"$REPORT" --sweep "$TMP/w1.csv" --slo "$TMP/breach.slo" > /dev/null \
  || STATUS=$?
[ "$STATUS" -eq 1 ] \
  || fail "forced breach exited $STATUS via cws-report, expected 1"
STATUS=0
"$SWEEP" --grid "$TMP/mini.grid" --workers 2 --runs-dir "$TMP/r5" \
         --slo "$TMP/breach.slo" --quiet 1 > /dev/null || STATUS=$?
[ "$STATUS" -eq 1 ] \
  || fail "forced breach exited $STATUS via cws-sweep, expected 1"

#=== 4. A ring-truncated journal is refused ==============================#
# 1,500 jobs overflow the journal's 65,536-event ring, so the journal
# lost the head of the run and has no indicators to pool.
cat > "$TMP/long.grid" <<EOF
axis strategy S1
seeds 1
base_seed 42
jobs 1500
EOF
STATUS=0
"$SWEEP" --grid "$TMP/long.grid" --workers 1 --runs-dir "$TMP/r6" \
         --quiet 1 > /dev/null 2> "$TMP/long.err" || STATUS=$?
[ "$STATUS" -eq 2 ] \
  || fail "ring-truncated journal exited $STATUS via cws-sweep, expected 2"
grep -q "run 0 (strategy=S1 seed 42): journal ring dropped [1-9][0-9]* events" \
     "$TMP/long.err" \
  || fail "refusal names no run or dropped count: $(cat "$TMP/long.err")"

echo "sweep smoke ok"

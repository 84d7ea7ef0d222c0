#!/bin/sh
#===-- tools/update-baselines.sh - Regenerate the golden baselines -------===#
#
# Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
# Scheduling" (PaCT 2009). Distributed without any warranty.
#
# Regenerates examples/baseline/ — the golden run artifacts that CI's
# `cws-diff --against-baseline` regression gate compares every build
# against, the report and explain-summary goldens that CI re-renders
# from them and compares with `diff -u`, and
# examples/baseline/bench/ — the BENCH_*.json perf
# baselines that CI's `cws-bench --against` ratchet compares every
# build against. Run from the repository root after an *intentional*
# behavior change, inspect the diff, and commit the result:
#
#   cmake -B build -S . && cmake --build build -j
#   sh tools/update-baselines.sh [build-dir]
#   git diff examples/baseline/   # review: is every change intended?
#
# The workload is pinned (jobs, seed, scenario id) so the artifacts
# are deterministic; the MANIFEST holds fnv1a64 content digests that
# let the gate reject stale baselines and short-circuit unchanged
# files.
#
#===----------------------------------------------------------------------===#
set -eu

BUILD=${1:-build}
OUT=examples/baseline

for T in cws-sim cws-diff cws-report cws-explain; do
  [ -x "$BUILD/tools/$T" ] || {
    echo "update-baselines: $BUILD/tools/$T missing;" \
         "build first (cmake --build $BUILD -j)" >&2
    exit 2
  }
done
mkdir -p "$OUT"

# The pinned example workload. Relative binary path keeps the recorded
# CLI text stable across checkouts (and the gate allows it to differ
# anyway).
"$BUILD/tools/cws-sim" --jobs 60 --seed 7 --scenario baseline \
    --journal "$OUT/example.journal.jsonl" \
    --timeseries "$OUT/example.ts.csv"

{
  echo "# Golden baseline digests (fnv1a64 over raw bytes)."
  echo "# Regenerate with: sh tools/update-baselines.sh"
  for F in example.journal.jsonl example.ts.csv; do
    D=$("$BUILD/tools/cws-diff" --digest "$OUT/$F" | cut -d' ' -f1)
    echo "$D  $F"
  done
} > "$OUT/MANIFEST"

echo "update-baselines: wrote $OUT/{example.journal.jsonl,example.ts.csv,MANIFEST}"

# The report and explain goldens, rendered from the committed journal
# and series with the default SLO.
"$BUILD/tools/cws-report" --journal "$OUT/example.journal.jsonl" \
    --timeseries "$OUT/example.ts.csv" --slo examples/default.slo \
    > "$OUT/example.report.md"
"$BUILD/tools/cws-explain" --summary "$OUT/example.journal.jsonl" \
    > "$OUT/example.summary.txt"

echo "update-baselines: wrote $OUT/{example.report.md,example.summary.txt}"

# The perf baselines. One measured repetition: wall-time statistics are
# advisory in the ratchet anyway, and only the deterministic work
# counters / checks gate, so a single rep is exactly as strong and much
# faster.
[ -x "$BUILD/tools/cws-bench" ] || {
  echo "update-baselines: $BUILD/tools/cws-bench missing;" \
       "build first (cmake --build $BUILD -j)" >&2
  exit 2
}
"$BUILD/tools/cws-bench" --reps 1 --warmup 0 --out "$OUT/bench" > /dev/null

echo "update-baselines: wrote $OUT/bench/BENCH_*.json"

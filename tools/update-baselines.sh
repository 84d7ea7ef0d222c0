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
# build against. A BENCH file is rewritten only when its fresh run is
# neither identical nor compatible with it (or it is missing), so the
# wall times of unchanged entries stay as recorded. Run from the
# repository root after an *intentional* behavior change, inspect the
# diff, and commit the result:
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
# counters, checks and profile counts gate, so a single rep is exactly
# as strong and much faster. The pass runs into a directory of the
# build tree (its path lands in each file's recorded CLI) against the
# committed files; an entry whose verdict is neither identical nor
# compatible (or that has no baseline) is copied over.
[ -x "$BUILD/tools/cws-bench" ] || {
  echo "update-baselines: $BUILD/tools/cws-bench missing;" \
       "build first (cmake --build $BUILD -j)" >&2
  exit 2
}
FRESH=$BUILD/bench-fresh
rm -rf "$FRESH"
trap 'rm -rf "$FRESH"' EXIT
mkdir -p "$OUT/bench" "$FRESH"
"$BUILD/tools/cws-bench" --reps 1 --warmup 0 --out "$FRESH" \
    --against "$OUT/bench" > "$FRESH/ratchet.txt" || true
if grep -q '^  check FAIL' "$FRESH/ratchet.txt"; then
  grep '^bench \|^  check FAIL' "$FRESH/ratchet.txt" >&2
  echo "update-baselines: a bench check fails; no BENCH file rewritten" >&2
  exit 1
fi
sed -n 's/^against baseline, \([a-z0-9_]*\): \(.*\)$/\1 \2/p' \
    "$FRESH/ratchet.txt" > "$FRESH/verdicts.txt"
[ -s "$FRESH/verdicts.txt" ] || {
  echo "update-baselines: the bench pass compared nothing" >&2
  exit 1
}
REWRITTEN=0
while read -r NAME VERDICT; do
  case "$VERDICT" in
    identical | compatible) ;;
    *)
      cp "$FRESH/BENCH_$NAME.json" "$OUT/bench/BENCH_$NAME.json"
      echo "update-baselines: wrote $OUT/bench/BENCH_$NAME.json ($VERDICT)"
      REWRITTEN=$((REWRITTEN + 1))
      ;;
  esac
done < "$FRESH/verdicts.txt"
echo "update-baselines: $REWRITTEN of $(wc -l < "$FRESH/verdicts.txt") BENCH files rewritten"

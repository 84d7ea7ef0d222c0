#!/bin/sh
#===-- tests/diff_smoke.sh - End-to-end cws-diff smoke test --------------===#
#
# Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
# Scheduling" (PaCT 2009). Distributed without any warranty.
#
# Usage: diff_smoke.sh <cws-sim> <cws-diff> <cws-explain> <cws-sched>
#                      <cws-sweep> <cws-report>
#
# Pins the differential-analysis acceptance properties end to end:
#  1. two runs of one workload are a semantic fixed point (exit 0)
#     even though their command lines, and so their meta lines, differ
#     byte-wise;
#  2. an injected one-event divergence exits 1 and the Markdown report
#     names the job id, the tick, and both cause chains;
#  3. the exit-code convention holds: 2 on missing files, unknown
#     flags, malformed artifacts, two different artifact kinds, bad
#     flag values of cws-sim, cws-sched and cws-explain, and the
#     removed knobs (`--build-threads`, `--shards`, `--invalidation`,
#     sweep axes `shards` and `invalidation`, and cws-diff's `--mode`,
#     `--ignore-meta`, `--statistical`, `--quantile-tol`,
#     `--exclude-series` and `--max-findings`), and cws-report's
#     malformed numbers (a sweep store's `runs=abc` or `seeds=-1`, a
#     series tick out of range, a `nan` or `inf` value) (never an abort,
#     never a silent default), and every flag of those tools takes
#     `--name=value`;
#  4. the baseline gate round-trips: a fresh MANIFEST passes, a
#     divergent artifact fails with exit 1, a stale digest fails with 2;
#  5. cws-explain --diff-job renders both timelines and the divergence.
#
#===----------------------------------------------------------------------===#
set -eu

SIM=$1
DIFF=$2
EXPLAIN=$3
SCHED=$4
SWEEP=$5
REPORT=$6
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail() {
  echo "diff_smoke: $1" >&2
  exit 1
}

#=== 1. Fixed point across two runs ======================================#
# The second run spells out the default --sample-every, so its command
# line differs while the workload does not.
"$SIM" --jobs 12 --seed 5 --journal "$TMP/a.jsonl" \
       --timeseries "$TMP/a.csv" > /dev/null
"$SIM" --jobs 12 --seed 5 --sample-every 25 \
       --journal "$TMP/b.jsonl" --timeseries "$TMP/b.csv" > /dev/null
"$DIFF" "$TMP/a.jsonl" "$TMP/b.jsonl" > /dev/null \
  || fail "a second run changed the journal semantics"
cmp -s "$TMP/a.jsonl" "$TMP/b.jsonl" \
  && fail "meta lines should differ byte-wise (cli)"

#=== 2. Injected divergence is localized =================================#
sed '0,/"kind":"commit"/s/"kind":"commit"/"kind":"reject"/' \
    "$TMP/b.jsonl" > "$TMP/bad.jsonl"
STATUS=0
"$DIFF" --report "$TMP/rep.md" "$TMP/a.jsonl" "$TMP/bad.jsonl" \
  > "$TMP/out.txt" || STATUS=$?
[ "$STATUS" -eq 1 ] || fail "injected divergence exited $STATUS, expected 1"
grep -q "diverged at t=" "$TMP/out.txt" \
  || fail "console output does not localize the divergence tick"
grep -q "^## First divergence" "$TMP/rep.md" \
  || fail "report lacks the first-divergence section"
grep -q "^job [0-9]* diverged at t=[0-9]*" "$TMP/rep.md" \
  || fail "report does not name the diverging job and tick"
grep -q "Cause chain in A" "$TMP/rep.md" \
  || fail "report lacks run A's cause chain"
grep -q "Cause chain in B" "$TMP/rep.md" \
  || fail "report lacks run B's cause chain"

#=== 3. Exit-code convention =============================================#
STATUS=0; "$DIFF" "$TMP/missing" "$TMP/a.jsonl" 2> /dev/null || STATUS=$?
[ "$STATUS" -eq 2 ] || fail "missing file exited $STATUS, expected 2"
STATUS=0; "$DIFF" --bogus 2> /dev/null || STATUS=$?
[ "$STATUS" -eq 2 ] || fail "unknown flag exited $STATUS, expected 2"
echo "not an artifact" > "$TMP/garbage"
STATUS=0
"$DIFF" "$TMP/garbage" "$TMP/a.jsonl" 2> /dev/null || STATUS=$?
[ "$STATUS" -eq 2 ] || fail "undetectable artifact exited $STATUS, expected 2"
# A journal whose second line is cut: detected as a journal, then
# refused by the parser.
{ head -n 1 "$TMP/a.jsonl"; sed -n 2p "$TMP/a.jsonl" | cut -c 1-20; } \
  > "$TMP/cut.jsonl"
STATUS=0
"$DIFF" "$TMP/cut.jsonl" "$TMP/a.jsonl" 2> "$TMP/cut.err" || STATUS=$?
[ "$STATUS" -eq 2 ] || fail "malformed journal exited $STATUS, expected 2"
grep -q "cut.jsonl: " "$TMP/cut.err" \
  || fail "malformed journal error names no file: $(cat "$TMP/cut.err")"
STATUS=0
"$DIFF" "$TMP/a.jsonl" "$TMP/a.csv" 2> "$TMP/kinds.err" || STATUS=$?
[ "$STATUS" -eq 2 ] || fail "journal vs series exited $STATUS, expected 2"
grep -q "different artifact kinds" "$TMP/kinds.err" \
  || fail "kind mismatch not reported: $(cat "$TMP/kinds.err")"
for ARGS in "--mode journal" "--ignore-meta" "--statistical" \
            "--quantile-tol 0.1" "--exclude-series x" "--max-findings 3"; do
  STATUS=0
  "$DIFF" $ARGS "$TMP/a.jsonl" "$TMP/b.jsonl" > /dev/null \
    2> "$TMP/removed.err" || STATUS=$?
  [ "$STATUS" -eq 2 ] || fail "cws-diff $ARGS exited $STATUS, expected 2"
  grep -q "unknown flag '${ARGS%% *}'" "$TMP/removed.err" \
    || fail "cws-diff $ARGS not refused as unknown: $(cat "$TMP/removed.err")"
done
"$DIFF" --allow-meta=shards,cli "$TMP/a.jsonl" "$TMP/b.jsonl" \
  > /dev/null || fail "cws-diff rejected --name=value flags"
for ARGS in "--job 99999999999999999999" "--job -2" "--job=x"; do
  STATUS=0
  "$EXPLAIN" $ARGS "$TMP/a.jsonl" > /dev/null 2>&1 || STATUS=$?
  [ "$STATUS" -eq 2 ] || fail "cws-explain $ARGS exited $STATUS, expected 2"
done
STATUS=0
"$EXPLAIN" --diff-job 99999999999999999999 "$TMP/a.jsonl" "$TMP/b.jsonl" \
  > /dev/null 2>&1 || STATUS=$?
[ "$STATUS" -eq 2 ] || fail "cws-explain bad --diff-job exited $STATUS"
STATUS=0
"$EXPLAIN" --summary "$TMP/a.jsonl" "$TMP/b.jsonl" > /dev/null 2>&1 \
  || STATUS=$?
[ "$STATUS" -eq 2 ] || fail "cws-explain with two journals exited $STATUS"
"$EXPLAIN" --job=3 "$TMP/a.jsonl" > /dev/null \
  || fail "cws-explain rejected --job=3"
for ARGS in "--jobs -3" "--slack 0" "--strategy S9" "--jobs abc" \
            "--slack 1e300" "--slack inf" "--sample-every 0" \
            "--sample-every -5" "--csv 5" "--exec 2" \
            "--build-threads -1" "--build-threads 1" "--shards 4" \
            "--invalidation scan"; do
  STATUS=0
  "$SIM" $ARGS > /dev/null 2>&1 || STATUS=$?
  [ "$STATUS" -eq 2 ] || fail "cws-sim $ARGS exited $STATUS, expected 2"
done
printf 'job "j" deadline 30\ntask t ref 2 vol 20\nnode perf 1.0\n' \
  > "$TMP/one.cws"
for ARGS in "--strategy S9" "--gantt 7" "--csv 3" "--fig2grid 9" \
            "--now -5" "--build-threads -1" "--build-threads 1" \
            "--invalidation scan"; do
  STATUS=0
  "$SCHED" --file "$TMP/one.cws" $ARGS > /dev/null 2>&1 || STATUS=$?
  [ "$STATUS" -eq 2 ] || fail "cws-sched $ARGS exited $STATUS, expected 2"
done
"$SCHED" --file "$TMP/one.cws" > /dev/null \
  || fail "cws-sched rejected a valid description"
for AXIS in "shards 1 4" "invalidation scan index"; do
  printf 'axis %s\nseeds 1\njobs 4\n' "$AXIS" > "$TMP/removed.grid"
  STATUS=0
  "$SWEEP" --grid "$TMP/removed.grid" --out "$TMP/removed.csv" --quiet 1 \
    > /dev/null 2>&1 || STATUS=$?
  [ "$STATUS" -eq 2 ] || fail "sweep axis $AXIS exited $STATUS, expected 2"
done
SWEEP_HEADER='scenario,axes,indicator,n,mean,stddev,ci95,p50,p90,p99,min,max'
for META in "runs=abc seeds=3" "runs=6 seeds=-1"; do
  printf '# cws-sweep statistics\n# sweep %s\n%s\n' "$META" "$SWEEP_HEADER" \
    > "$TMP/bad.sweep.csv"
  STATUS=0
  "$REPORT" --sweep "$TMP/bad.sweep.csv" > /dev/null 2> "$TMP/bad.err" \
    || STATUS=$?
  [ "$STATUS" -eq 2 ] || fail "cws-report on '# sweep $META' exited $STATUS"
  grep -q "line 2: bad" "$TMP/bad.err" \
    || fail "'# sweep $META' not refused on its line: $(cat "$TMP/bad.err")"
done
for ROW in "0,99999999999999999999,sample,util_busy,0,,0.5" \
           "0,5,sample,util_busy,0,,nan" "0,5,sample,util_busy,0,,inf"; do
  printf 'seq,tick,reason,series,node,flow,value\n%s\n' "$ROW" \
    > "$TMP/bad.ts.csv"
  STATUS=0
  "$REPORT" --journal "$TMP/a.jsonl" --timeseries "$TMP/bad.ts.csv" \
    > /dev/null 2> "$TMP/bad.err" || STATUS=$?
  [ "$STATUS" -eq 2 ] || fail "cws-report on series row '$ROW' exited $STATUS"
  grep -q "line 2: bad" "$TMP/bad.err" \
    || fail "series row '$ROW' not refused on its line: $(cat "$TMP/bad.err")"
done

#=== 4. Baseline gate ====================================================#
mkdir "$TMP/base"
cp "$TMP/a.jsonl" "$TMP/base/smoke.journal.jsonl"
cp "$TMP/a.csv" "$TMP/base/smoke.ts.csv"
for F in smoke.journal.jsonl smoke.ts.csv; do
  D=$("$DIFF" --digest "$TMP/base/$F" | cut -d' ' -f1)
  echo "$D  $F"
done > "$TMP/base/MANIFEST"
"$DIFF" --against-baseline "$TMP/base" --journal "$TMP/b.jsonl" \
        --timeseries "$TMP/a.csv" > /dev/null \
  || fail "equivalent run failed the baseline gate"
STATUS=0
"$DIFF" --against-baseline "$TMP/base" --journal "$TMP/bad.jsonl" \
        --report "$TMP/baserep.md" > /dev/null || STATUS=$?
[ "$STATUS" -eq 1 ] || fail "divergent run exited $STATUS at the gate"
grep -q "diverged at t=" "$TMP/baserep.md" \
  || fail "baseline gate report does not localize the divergence"
echo "x" >> "$TMP/base/smoke.journal.jsonl"
STATUS=0
"$DIFF" --against-baseline "$TMP/base" --journal "$TMP/a.jsonl" \
        2> /dev/null || STATUS=$?
[ "$STATUS" -eq 2 ] || fail "stale baseline digest exited $STATUS, expected 2"

#=== 5. cws-explain --diff-job ===========================================#
JOB=$(sed -n 's/.*"kind":"reject".*"job":\([0-9]*\).*/\1/p' \
      "$TMP/bad.jsonl" | head -1)
[ -n "$JOB" ] || JOB=0
"$EXPLAIN" --diff-job="$JOB" "$TMP/a.jsonl" "$TMP/bad.jsonl" \
  > "$TMP/expl.txt" || fail "cws-explain --diff-job failed"
grep -q -- "--- run A ---" "$TMP/expl.txt" \
  || fail "diff-job output lacks run A's timeline"
grep -q "diverges at t=" "$TMP/expl.txt" \
  || fail "diff-job output does not localize the divergence"

echo "diff smoke ok"

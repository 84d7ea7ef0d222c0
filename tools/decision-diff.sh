#!/bin/sh
#===-- tools/decision-diff.sh - Compare the decisions of two builds ------===#
#
# Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
# Scheduling" (PaCT 2009). Distributed without any warranty.
#
# Runs cws-sim from two build trees over one fixed configuration matrix
# and checks that they decide the same. A change that is meant to make
# the scheduler faster without changing what it does must pass it
# against its parent:
#
#   sh tools/decision-diff.sh ../parent/build build
#
# The matrix, all at seed 7: strategy S1, S2, S3 and MS1, times
#   300 jobs; 300 jobs with --reallocation rebuild; 120 jobs with
#   --arrival-scale 6; 200 jobs with --exec 1; 150 jobs with --slack 1.3;
#   300 jobs with --repair-oracle 1:
# 24 configurations. Per configuration it compares the journal events
# after the meta line, the --timeseries rows after the `# provenance`
# comment (both of those lines record the command line), the --csv 1
# stdout, the QoS aggregates (the `cws_vo_*` and `cws_flow_*` lines of
# --metrics; the file's other lines hold timings) and the exit code.
#
# Exits 0 when every configuration matches, 1 naming the first one that
# differs, and 2 on a usage error.
#
#===----------------------------------------------------------------------===#
set -u

[ $# -eq 2 ] || {
  echo "usage: sh tools/decision-diff.sh PARENT_BUILD NEW_BUILD" >&2
  exit 2
}
for Build in "$1" "$2"; do
  [ -x "$Build/tools/cws-sim" ] || {
    echo "decision-diff: $Build/tools/cws-sim missing; build first" >&2
    exit 2
  }
done

Work=$(mktemp -d) || exit 2
trap 'rm -rf "$Work"' EXIT

# Runs one build on one configuration: stdout, exit code, journal
# events, time-series rows and QoS aggregates go to files named by the
# side.
run() {
  Side=$1
  Build=$2
  shift 2
  "$Build/tools/cws-sim" --seed 7 --csv 1 --journal "$Work/$Side.jsonl" \
      --timeseries "$Work/$Side.ts.csv" --metrics "$Work/$Side.prom" "$@" \
      > "$Work/$Side.out" 2> /dev/null
  echo $? > "$Work/$Side.code"
  tail -n +2 "$Work/$Side.jsonl" > "$Work/$Side.events" 2> /dev/null
  grep -v '^# provenance' "$Work/$Side.ts.csv" > "$Work/$Side.series" \
      2> /dev/null
  grep -E '^cws_(vo|flow)_' "$Work/$Side.prom" > "$Work/$Side.qos" \
      2> /dev/null
}

Count=0
for Strategy in S1 S2 S3 MS1; do
  for Shape in "--jobs 300" \
               "--jobs 300 --reallocation rebuild" \
               "--jobs 120 --arrival-scale 6" \
               "--jobs 200 --exec 1" \
               "--jobs 150 --slack 1.3" \
               "--jobs 300 --repair-oracle 1"; do
    Config="--strategy $Strategy $Shape"
    rm -f "$Work"/*.jsonl "$Work"/*.ts.csv "$Work"/*.prom
    # Word splitting of $Config is intended: it holds the flags.
    # shellcheck disable=SC2086
    run parent "$1" $Config
    # shellcheck disable=SC2086
    run new "$2" $Config
    for Part in code out events series qos; do
      cmp -s "$Work/parent.$Part" "$Work/new.$Part" || {
        echo "decision-diff: differs ($Part) at: $Config" >&2
        exit 1
      }
    done
    Count=$((Count + 1))
  done
done
echo "decision-diff: identical on $Count configurations"

#!/bin/sh
#===-- tests/single_thread_guard.sh - One thread per process ---------------===#
#
# Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
# Scheduling" (PaCT 2009). Distributed without any warranty.
#
# Usage: single_thread_guard.sh <source root>
#
# The observability sinks (journal, tracer, time series, metrics registry,
# profiler) are thread-compatible: one thread at a time, like a standard
# container. That is enough only while nothing in the program starts a
# second thread; independent runs go in parallel as processes (cws-sweep,
# the repository benchmark). This check fails when src/, tools/, bench/ or
# examples/ name a thread, a lock, an atomic or a future, and prints the
# offending lines.
#
# tests/ is left out: one strategy test builds on a fresh thread, joined
# before its result is read, to show a build does not depend on the warm
# scratch buffers an earlier build left on its thread.
#
#===----------------------------------------------------------------------===#
set -eu

ROOT=$1
NAMES='std::(thread|jthread|async|[a-z_]*mutex|atomic|condition_variable)|pthread_create'
HEADERS='#[[:space:]]*include[[:space:]]*<(thread|[a-z_]*mutex|atomic|future|condition_variable)>'

# grep exits 0 on a match, 1 on none and 2 when it cannot read a path;
# only 1 is a pass.
Status=0
grep -rnE "$NAMES|$HEADERS" "$ROOT/src" "$ROOT/tools" "$ROOT/bench" \
  "$ROOT/examples" || Status=$?
case $Status in
0)
  echo "single_thread_guard: the lines above name threads, locks or" \
    "atomics; the program runs one thread per process" >&2
  exit 1
  ;;
1)
  echo "single_thread_guard: src, tools, bench and examples start no thread"
  ;;
*)
  echo "single_thread_guard: could not scan the sources under $ROOT" >&2
  exit 1
  ;;
esac

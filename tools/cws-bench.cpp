//===-- tools/cws-bench.cpp - Structured benchmark runner -----------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// cws-bench: run the registered benchmarks through the structured
/// harness, write one provenance-stamped `BENCH_<name>.json` per bench
/// and ratchet against a baseline directory. Usage:
///
///   cws-bench [--list] [--filter substr] [--reps N] [--warmup N]
///             [--out dir] [--against baseline-dir] [--compare-only 1]
///
/// Deterministic work counters and checks gate the comparison (exit 1
/// on any change or dropped check); wall-time metrics are advisory
/// only; runs whose provenance identity (config hash, scenario, seeds)
/// differs, and benches without a baseline file, are refused with
/// exit 2 — see bench/harness.h for the full contract.
///
//===----------------------------------------------------------------------===//

#include "harness.h"

int main(int Argc, char **Argv) {
  return cws::bench::benchMain(Argc, Argv);
}

//===-- sweep/Runner.h - Worker-process sweep execution ---------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fans an expanded scenario grid across worker processes and pools the
/// results. Each run is one `cws-sim` child process (fork/exec) writing
/// its journal and time series into the runs directory; at most
/// `Workers` children run at once. Pooling happens afterwards in run
/// index order, in the parent: each run's artifacts are parsed with the
/// `obs` parsers, the provenance stamps are verified (right seed, right
/// scenario id, one config hash per scenario — any mismatch aborts the
/// sweep with an error naming the run), and the run's indicators join
/// the accumulator. Because the simulator is deterministic per seed and
/// pooling is order-fixed and order-insensitive (sweep/Stats.h), the
/// resulting store is byte-identical at any worker count.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_SWEEP_RUNNER_H
#define CWS_SWEEP_RUNNER_H

#include "obs/Report.h"
#include "sweep/Scenario.h"

#include <functional>
#include <string>

namespace cws {
namespace sweep {

/// Options of one sweep execution.
struct SweepOptions {
  /// Path of the `cws-sim` binary to spawn.
  std::string SimBinary;
  /// Directory for per-run artifacts (created if missing); run R writes
  /// `run-R.journal.jsonl`, `run-R.ts.csv` and `run-R.log` there.
  std::string RunsDir;
  /// Maximum concurrent worker processes.
  unsigned Workers = 2;
  /// Keep per-run artifacts after pooling (default: delete them).
  bool KeepRuns = false;
  /// Optional progress sink (one line per completed run).
  std::function<void(const std::string &)> Progress;
};

/// Expands \p Grid, runs every replica through a worker process and
/// pools the statistics into \p Out. Returns false and sets \p Error on
/// the first failure: an unspawnable or failing child, unreadable or
/// unparsable artifacts, a missing provenance stamp, or a provenance
/// mismatch (wrong seed / scenario, diverging config hash within a
/// scenario, journal and series disagreeing), or a journal whose ring
/// dropped events.
bool runSweep(const SweepGrid &Grid, const SweepOptions &Opts,
              obs::SweepStore &Out, std::string &Error);

} // namespace sweep
} // namespace cws

#endif // CWS_SWEEP_RUNNER_H

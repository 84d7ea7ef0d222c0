//===-- metrics/Export.h - CSV export of schedules and stats ----*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CSV renderers for external analysis and plotting: a distribution's
/// placements, a strategy's variant summary, and the per-job QoS
/// records of a virtual-organization run. Also the one export path of
/// the observability artifacts `cws-sim` and `cws-sched` write.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_METRICS_EXPORT_H
#define CWS_METRICS_EXPORT_H

#include "core/Distribution.h"
#include "core/Strategy.h"
#include "flow/JobManager.h"
#include "obs/Metrics.h"
#include "obs/Provenance.h"
#include "obs/TimeSeries.h"
#include "support/Flags.h"

#include <string>
#include <vector>

namespace cws {

/// Placements as CSV: task,name,node,start,end,cost.
std::string distributionCsv(const Job &J, const Distribution &D);

/// Variant summary as CSV: variant,level_perf,bias,feasible,start,
/// makespan,econ_cost,cf,collisions.
std::string strategyCsv(const Strategy &S);

/// Per-job VO records as CSV (one row per job).
std::string voStatsCsv(const std::vector<VoJobStats> &Stats);

/// Writes a metrics snapshot of \p R to \p Path in Prometheus text
/// exposition.
bool writeMetricsSnapshot(const std::string &Path,
                          const obs::Registry &R = obs::Registry::global());

/// The observability artifacts one tool run asked for (the `--trace`,
/// `--trace-categories`, `--metrics`, `--journal`, `--timeseries` and
/// `--profile` flags of cws-sim and cws-sched); an empty path leaves
/// that sink off.
struct ObsArtifacts {
  std::string Trace;
  /// Trace categories to record, comma-separated (empty = all).
  std::string TraceCategories;
  std::string Metrics;
  std::string Journal;
  std::string TimeSeries;
  std::string Profile;

  /// Registers the six flags above on \p F.
  void addFlags(Flags &F);

  /// Before the run: enables every sink with a path (the sampler at
  /// \p Sampling) and stamps \p Prov into the journal, the sampler and
  /// the profiler.
  void start(const obs::RunProvenance &Prov,
             const obs::TimeSeriesConfig &Sampling = {}) const;

  /// After the run: stops the sampler and the profiler, splices their
  /// Chrome trace fragments into the trace, writes each requested file
  /// with a "<Tool>: wrote ..." note on stderr, and publishes the loss
  /// counters before the metrics snapshot. Returns 0, or 2 after a
  /// "<Tool>: cannot write ..." message.
  int finish(const char *Tool) const;
};

} // namespace cws

#endif // CWS_METRICS_EXPORT_H

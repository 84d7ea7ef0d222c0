//===-- sweep/Stats.h - Pooled per-scenario statistics ----------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pools per-run QoS indicators into the sweep statistics store. The
/// accumulator keeps every raw sample and finalizes by sorting each
/// indicator's samples first, so every derived statistic — mean, sample
/// stddev, 95% CI half-width, exact p50/p90/p99 quantiles, extrema —
/// depends only on the sample *multiset*, never on arrival order, and
/// sweep results are identical at any worker-process count.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_SWEEP_STATS_H
#define CWS_SWEEP_STATS_H

#include "obs/Report.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cws {
namespace sweep {

/// Accumulates per-run indicator samples for a fixed scenario list.
class SweepAccumulator {
public:
  /// \p Scenarios: (id, axes) of every scenario, in grid order.
  explicit SweepAccumulator(
      std::vector<std::pair<std::string,
                            std::vector<std::pair<std::string, std::string>>>>
          Scenarios,
      uint64_t Seeds);

  /// Adds one run's indicator map (from `obs::computeIndicators`) to
  /// scenario \p ScenarioIndex.
  void addRun(size_t ScenarioIndex,
              const std::map<std::string, double> &Indicators);

  /// Runs added so far.
  uint64_t runs() const { return Runs; }

  /// Derives the statistics store: per indicator N, mean, sample
  /// stddev, CI95 half-width (`tCritical95(N-1) * stddev / sqrt(N)`,
  /// 0 for N == 1), exact p50/p90/p99, min, max.
  obs::SweepStore finalize() const;

private:
  std::vector<std::pair<std::string,
                        std::vector<std::pair<std::string, std::string>>>>
      Scenarios;
  uint64_t Seeds;
  uint64_t Runs = 0;
  /// Per scenario: indicator name -> raw samples.
  std::vector<std::map<std::string, std::vector<double>>> Samples;
};

} // namespace sweep
} // namespace cws

#endif // CWS_SWEEP_STATS_H

//===-- metrics/Experiment.h - Figure experiment harness --------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared harness behind the figure benches. Fig. 3 is the static
/// application-level study (strategies for thousands of random jobs,
/// each against a freshly pre-loaded random environment); Fig. 4 is the
/// dynamic coordinated two-level study (virtual-organization runs per
/// strategy type).
///
//===----------------------------------------------------------------------===//

#ifndef CWS_METRICS_EXPERIMENT_H
#define CWS_METRICS_EXPERIMENT_H

#include "core/Collision.h"
#include "core/Strategy.h"
#include "flow/VirtualOrganization.h"
#include "job/Generator.h"
#include "metrics/QoS.h"

#include <cstdint>
#include <vector>

namespace cws {

/// Parameters of the Fig. 3 application-level study.
struct Fig3Config {
  size_t JobCount = 12000;
  GridConfig GridCfg;
  WorkloadConfig Workload;
  StrategyConfig StrategyCfg;
  /// Per-node busy fraction of the pre-existing independent load,
  /// uniform in [PreloadLo, PreloadHi].
  double PreloadLo = 0.35;
  double PreloadHi = 0.75;
  /// Pre-load busy interval length, uniform.
  Tick PreloadDurLo = 2;
  Tick PreloadDurHi = 10;
  std::vector<StrategyKind> Kinds = {StrategyKind::S1, StrategyKind::S2,
                                     StrategyKind::S3};
  uint64_t Seed = 2009;
};

/// Accumulated Fig. 3 results for one strategy type.
struct Fig3Row {
  StrategyKind Kind = StrategyKind::S1;
  size_t Jobs = 0;
  size_t Admissible = 0;
  /// Fig. 3a: percentage of experiments with admissible schedules.
  double admissiblePercent() const {
    return Jobs ? 100.0 * static_cast<double>(Admissible) /
                      static_cast<double>(Jobs)
                : 0.0;
  }
  /// Fig. 3b: collisions between tasks of different critical works,
  /// split by contended node group. IntraCost covers the cost-optimized
  /// variants (the paper's CF-driven method); IntraTime the
  /// time-optimized ones.
  CollisionSplit IntraCost;
  CollisionSplit IntraTime;
  /// Collisions against pre-existing independent load.
  CollisionSplit Background;
  double MeanVariants = 0.0;
  double MeanFeasibleVariants = 0.0;
};

/// Runs the Fig. 3 study; one row per configured strategy type.
std::vector<Fig3Row> runFig3(const Fig3Config &Config);

/// Pre-loads every node of \p Env with random background reservations
/// until the busy fraction over [0, Horizon) reaches a per-node target
/// drawn from [Lo, Hi]. Returns placed reservation count.
size_t preloadGrid(Grid &Env, Tick Horizon, double Lo, double Hi, Tick DurLo,
                   Tick DurHi, Prng &Rng);

/// The virtual-organization configuration the Fig. 4 study defaults to:
/// a moderately looser deadline than the Fig. 3 stress test (committed
/// jobs must actually run for cost/time/TTL factors to be measurable)
/// and a calmer background flow.
VoConfig makeFig4VoConfig();

/// Parameters of the Fig. 4 coordinated two-level study.
struct Fig4Config {
  VoConfig Vo = makeFig4VoConfig();
  std::vector<StrategyKind> Kinds = {StrategyKind::S1, StrategyKind::S2,
                                     StrategyKind::S3, StrategyKind::MS1};
  uint64_t Seed = 2009;
};

/// One strategy type's dynamic results: the run and its aggregates.
struct Fig4Row {
  VoRunResult Run;
  VoAggregates Agg;
};

/// Runs the Fig. 4 study; one row per configured strategy type (all
/// rows share the same seed, hence the same environment and job flow).
std::vector<Fig4Row> runFig4(const Fig4Config &Config);

} // namespace cws

#endif // CWS_METRICS_EXPERIMENT_H

//===-- core/Strategy.h - Scheduling strategies -----------------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Strategies: "a set of possible job scheduling variants with a
/// coordinated allocation of the tasks to the processor nodes". A
/// strategy holds one supporting schedule (Distribution) per environment
/// event it covers; which one is actually used "depends on the load
/// level of the resource dynamics".
///
/// An environment event is modelled as an estimation level: the variant
/// for level L assumes every node faster than L is taken by independent
/// job flows and plans on the remaining nodes, with either cost or
/// finish-time optimization. The paper's strategy types map to
/// (granularity, data policy, estimation coverage) triples:
///
///   S1  - fine-grain, active data replication, all levels
///   S2  - fine-grain, remote data access,      all levels
///   S3  - coarse-grain, static data storage,   all levels
///   MS1 - fine-grain, active data replication, best & worst level only
///
//===----------------------------------------------------------------------===//

#ifndef CWS_CORE_STRATEGY_H
#define CWS_CORE_STRATEGY_H

#include "core/Scheduler.h"
#include "job/Job.h"
#include "sim/Time.h"

#include <cstddef>
#include <vector>

namespace cws {

/// The strategy types evaluated in Section 4.
enum class StrategyKind { S1, S2, S3, MS1 };

/// Display name ("S1" ... "MS1").
const char *strategyName(StrategyKind Kind);

/// The data policy a strategy type uses.
DataPolicyKind strategyDataPolicy(StrategyKind Kind);

/// True for types that cover only the best and worst estimation level.
bool strategyBestWorstOnly(StrategyKind Kind);

/// Tunables of strategy generation.
struct StrategyConfig {
  StrategyKind Kind = StrategyKind::S1;
  /// Estimation levels are the distinct node performances, quantized to
  /// at most this many levels (Fig. 2a has four).
  size_t MaxLevels = 4;
  /// Node-switch penalty applied by coarse-grain types (S3).
  double CoarsePenalty = 8.0;
  /// Sibling-merge rounds of the coarse-grain job transformation (S3).
  unsigned CoarsenSiblingRounds = 1;
  /// Macro-task size bound of the coarse-grain transformation (S3);
  /// 0 = unbounded. Looser deadlines tolerate larger macro-tasks.
  Tick CoarsenMaxRef = 6;
  DataPolicyConfig DataConfig;
  CostConfig Costs;
  size_t MaxFrontSize = 8;
  /// When non-empty, restrict scheduling to these node ids (a domain of
  /// the hierarchical framework). Estimation levels are derived from
  /// the restricted set.
  std::vector<unsigned> AllowedNodes;
};

/// One supporting schedule of a strategy.
struct ScheduleVariant {
  /// Estimation level this variant covers (index into levels()).
  size_t Level = 0;
  /// Relative performance of that level.
  double LevelPerf = 0.0;
  OptimizationBias Bias = OptimizationBias::Cost;
  ScheduleResult Result;

  bool feasible() const { return Result.Feasible; }
};

/// A generated strategy: the variant set plus bookkeeping.
class Strategy {
public:
  /// Generates the strategy of \p Config.Kind for \p J against the load
  /// state of \p Env at time \p Now; the environment is not mutated.
  /// Each distinct covered level is built once, on its own copy of
  /// \p Env: its Cost and Time variants share one lane (scratch state)
  /// until their chain picks first differ, and then continue on two.
  /// A level whose candidates differ from the previous covered level's
  /// only by nodes the job cannot use (no window for its shortest task
  /// before the deadline) is not built, and a Time lane that never split
  /// from its Cost twin yields no variant: both would equal a variant
  /// already kept.
  static Strategy build(const Job &J, const Grid &Env, const Network &Net,
                        const StrategyConfig &Config, OwnerId Owner,
                        Tick Now = 0);

  /// A strategy carrying \p Fixed as its single supporting schedule in
  /// place of \p Stale's variant set — the staged-repair outcome of the
  /// metascheduler. Kind, job and levels are inherited from \p Stale;
  /// the other stale variants are dropped because the repair only
  /// validated \p Fixed against the current environment (the flow layer
  /// commits the repaired job immediately, so a one-variant strategy is
  /// exactly what it needs).
  static Strategy repaired(const Strategy &Stale, ScheduleVariant Fixed,
                           Tick Now);

  StrategyKind kind() const { return Kind; }
  unsigned jobId() const { return JobId; }
  Tick builtAt() const { return BuiltAt; }

  /// The job the variants actually schedule: the submitted job for
  /// fine-grain types, its coarse-grain contraction for S3. Task ids in
  /// the variants' placements refer to *this* job.
  const Job &scheduledJob() const { return Scheduled; }

  const std::vector<ScheduleVariant> &variants() const { return Variants; }
  const std::vector<double> &levels() const { return Levels; }

  /// Number of variants with a complete, deadline-meeting schedule.
  size_t feasibleCount() const;

  /// True when at least one variant is feasible — the admissibility
  /// criterion of Fig. 3a.
  bool admissible() const { return feasibleCount() > 0; }

  /// Cheapest / fastest feasible variant (nullptr when none).
  const ScheduleVariant *bestByCost() const;
  const ScheduleVariant *bestByTime() const;

  /// Cheapest feasible variant whose reservations are still free in
  /// \p Current — the supporting schedule to use under the current load
  /// dynamics. Intervals owned by \p Ignore do not count as busy.
  /// Returns nullptr when the whole strategy is stale.
  const ScheduleVariant *bestFitting(const Grid &Current,
                                     OwnerId Ignore = 0) const;

  /// All collisions over all variants.
  std::vector<CollisionRecord> allCollisions() const;

private:
  StrategyKind Kind = StrategyKind::S1;
  unsigned JobId = 0;
  Tick BuiltAt = 0;
  Job Scheduled;
  std::vector<double> Levels;
  std::vector<ScheduleVariant> Variants;
};

} // namespace cws

#endif // CWS_CORE_STRATEGY_H

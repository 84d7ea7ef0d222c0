//===-- core/Strategy.cpp - Scheduling strategies -------------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "core/Strategy.h"
#include "job/Coarsen.h"
#include "job/Job.h"
#include "obs/Journal.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Check.h"

#include <cmath>

#include <algorithm>
#include <limits>
#include <optional>

using namespace cws;

const char *cws::strategyName(StrategyKind Kind) {
  switch (Kind) {
  case StrategyKind::S1:
    return "S1";
  case StrategyKind::S2:
    return "S2";
  case StrategyKind::S3:
    return "S3";
  case StrategyKind::MS1:
    return "MS1";
  }
  CWS_UNREACHABLE("unknown strategy kind");
}

DataPolicyKind cws::strategyDataPolicy(StrategyKind Kind) {
  switch (Kind) {
  case StrategyKind::S1:
  case StrategyKind::MS1:
    return DataPolicyKind::ActiveReplication;
  case StrategyKind::S2:
    return DataPolicyKind::RemoteAccess;
  case StrategyKind::S3:
    return DataPolicyKind::StaticStorage;
  }
  CWS_UNREACHABLE("unknown strategy kind");
}

bool cws::strategyBestWorstOnly(StrategyKind Kind) {
  return Kind == StrategyKind::MS1;
}

/// Distinct node performances quantized to at most MaxLevels values
/// (always keeping the fastest and the slowest).
static std::vector<double> quantizeLevels(std::vector<double> Levels,
                                          size_t MaxLevels) {
  CWS_CHECK(MaxLevels >= 2, "need at least two estimation levels");
  if (Levels.size() <= MaxLevels)
    return Levels;
  std::vector<double> Picked;
  Picked.reserve(MaxLevels);
  for (size_t I = 0; I < MaxLevels; ++I) {
    size_t Idx = I * (Levels.size() - 1) / (MaxLevels - 1);
    Picked.push_back(Levels[Idx]);
  }
  Picked.erase(std::unique(Picked.begin(), Picked.end()), Picked.end());
  return Picked;
}

/// True when both distributions place every task identically.
static bool sameDistribution(const Distribution &A, const Distribution &B) {
  if (A.size() != B.size())
    return false;
  for (const auto &P : A.placements()) {
    const Placement *Q = B.find(P.TaskId);
    if (!Q || Q->NodeId != P.NodeId || Q->Start != P.Start || Q->End != P.End)
      return false;
  }
  return true;
}

Strategy Strategy::build(const Job &J, const Grid &Env, const Network &Net,
                         const StrategyConfig &Config, OwnerId Owner,
                         Tick Now) {
  static obs::Counter &Builds = obs::Registry::global().counter(
      "cws_strategy_builds_total", "strategies generated");
  obs::Span BuildSpan("core", "strategy.build", "job",
                      static_cast<int64_t>(J.id()));
  Strategy S;
  S.Kind = Config.Kind;
  S.JobId = J.id();
  S.BuiltAt = Now;
  // S3 plans the job at coarse granularity: fewer, larger tasks and
  // fewer data exchanges (the transformation keeps the QoS contract).
  if (Config.Kind == StrategyKind::S3) {
    CoarsenConfig CC;
    CC.SiblingRounds = Config.CoarsenSiblingRounds;
    CC.MaxMergedRef = Config.CoarsenMaxRef;
    S.Scheduled = coarsenJob(J, CC).Coarse;
  } else {
    S.Scheduled = J;
  }
  // Restrict to the allowed node set (a domain), when given.
  auto IsAllowed = [&Config](unsigned NodeId) {
    return Config.AllowedNodes.empty() ||
           std::find(Config.AllowedNodes.begin(), Config.AllowedNodes.end(),
                     NodeId) != Config.AllowedNodes.end();
  };
  std::vector<double> NodePerfs;
  for (const auto &N : Env.nodes())
    if (IsAllowed(N.id()))
      NodePerfs.push_back(N.relPerf());
  CWS_CHECK(!NodePerfs.empty(), "no allowed nodes in the environment");
  std::sort(NodePerfs.begin(), NodePerfs.end(), std::greater<double>());
  NodePerfs.erase(std::unique(NodePerfs.begin(), NodePerfs.end(),
                              [](double A, double B) {
                                return std::abs(A - B) < 1e-12;
                              }),
                  NodePerfs.end());
  S.Levels = quantizeLevels(std::move(NodePerfs), Config.MaxLevels);

  std::vector<size_t> Covered;
  if (strategyBestWorstOnly(Config.Kind) && S.Levels.size() > 2)
    Covered = {0, S.Levels.size() - 1};
  else
    for (size_t I = 0; I < S.Levels.size(); ++I)
      Covered.push_back(I);

  // A node is full when the base load leaves it no window for the
  // job's shortest task between its release and its deadline. No DP
  // label can land on a full node: a scratch grid only adds the job's
  // own reservations, every ready time is at least the release, every
  // latest finish at most the deadline, no task runs shorter there than
  // the shortest one, and earliestFit is monotone in its start and its
  // duration. So the test bounds the DP's search (each level searches
  // only its open candidates) as well as the set of levels built.
  const Job &Sched = S.Scheduled;
  std::vector<bool> Full(Env.size(), false);
  if (Sched.taskCount() > 0) {
    Tick Shortest = Sched.task(0).RefTicks;
    for (unsigned TaskId = 1; TaskId < Sched.taskCount(); ++TaskId)
      Shortest = std::min(Shortest, Sched.task(TaskId).RefTicks);
    Tick Release = std::max(Now, Sched.release());
    for (const auto &N : Env.nodes()) {
      Tick Dur = N.execTicks(Shortest);
      Full[N.id()] =
          N.timeline().earliestFit(Release, Dur) + Dur > Sched.deadline();
    }
  }

  // Identical supporting schedules add no coverage; keep one. A Time
  // variant that was not built would have been a duplicate of its Cost
  // twin.
  size_t VariantsBuilt = 0;
  uint64_t IntervalsCopied = 0;
  auto Merge = [&](size_t Level, OptimizationBias Bias,
                   ScheduleResult &&Result) {
    ++VariantsBuilt;
    for (const auto &Existing : S.Variants)
      if (Existing.feasible() == Result.Feasible &&
          sameDistribution(Existing.Result.Dist, Result.Dist))
        return;
    S.Variants.push_back({Level, S.Levels[Level], Bias, std::move(Result)});
  };

  // Each distinct covered level is built once, its Cost and Time variants
  // together on one lane, and merged in (level, bias) order. The
  // candidate sets of two levels that differ only by full nodes yield
  // the same distributions, so the higher level's variants would be
  // merged away as duplicates (only the Cost bias's `Moved` scan sees
  // the full nodes): such a level is skipped.
  std::optional<std::vector<unsigned>> PrevOpen;
  for (size_t Level : Covered) {
    // The variant for level L covers the event "every node faster than L
    // is taken": it may only use nodes at or below that performance. The
    // candidates that are not full are the DP's search set.
    std::vector<unsigned> Candidates, Open;
    Candidates.reserve(Env.size());
    Open.reserve(Env.size());
    for (const auto &N : Env.nodes())
      if (IsAllowed(N.id()) && N.relPerf() <= S.Levels[Level] + 1e-9) {
        Candidates.push_back(N.id());
        if (!Full[N.id()])
          Open.push_back(N.id());
      }
    if (Candidates.empty() || (PrevOpen && Open == *PrevOpen))
      continue;
    SchedulerConfig SC;
    SC.DataKind = strategyDataPolicy(Config.Kind);
    SC.DataConfig = Config.DataConfig;
    SC.Costs = Config.Costs;
    SC.Alloc.CandidateNodes = std::move(Candidates);
    SC.Alloc.SearchNodes = std::move(Open);
    SC.Alloc.NodeSwitchPenalty =
        Config.Kind == StrategyKind::S3 ? Config.CoarsePenalty : 0.0;
    SC.Alloc.MaxFrontSize = Config.MaxFrontSize;
    CostTimeSchedules Built =
        scheduleCostAndTime(Sched, Env, Net, SC, Owner, Now);
    PrevOpen = std::move(SC.Alloc.SearchNodes);
    IntervalsCopied += Built.IntervalsCopied;
    Merge(Level, OptimizationBias::Cost, std::move(Built.Cost));
    if (Built.Time)
      Merge(Level, OptimizationBias::Time, std::move(*Built.Time));
  }
  // Journal the per-variant outcomes post-merge, in (level, bias) order.
  obs::Journal &Jn = obs::Journal::global();
  if (Jn.enabled()) {
    auto JobId = static_cast<int64_t>(J.id());
    for (size_t I = 0; I < S.Variants.size(); ++I) {
      const ScheduleVariant &V = S.Variants[I];
      Jn.append(obs::JournalKind::Variant, JobId, Now,
                {{"level", static_cast<int64_t>(V.Level)},
                 {"bias", static_cast<int64_t>(V.Bias)},
                 {"feasible", V.feasible() ? 1 : 0},
                 {"cost", std::llround(V.Result.Dist.economicCost())},
                 {"cf", V.Result.Dist.costFunction(S.Scheduled)},
                 {"makespan", V.Result.Dist.makespan()}},
                optimizationBiasName(V.Bias));
      for (const CollisionRecord &C : V.Result.Collisions)
        Jn.append(obs::JournalKind::Collision, JobId, Now,
                  {{"variant", static_cast<int64_t>(I)},
                   {"task", C.TaskId},
                   {"node", C.NodeId},
                   {"wanted", C.WantedStart},
                   {"actual", C.ActualStart},
                   {"owner", static_cast<int64_t>(C.BlockingOwner)}},
                  collisionResolutionName(C.Resolution));
    }
  }
  // The strategy outlives the build while its job negotiates.
  S.Levels.shrink_to_fit();
  S.Variants.shrink_to_fit();
  Builds.add();
  BuildSpan.arg("variants", static_cast<int64_t>(S.Variants.size()));
  BuildSpan.work("variants_built", VariantsBuilt);
  BuildSpan.work("variants_kept", S.Variants.size());
  BuildSpan.work("intervals_copied", IntervalsCopied);
  return S;
}

Strategy Strategy::repaired(const Strategy &Stale, ScheduleVariant Fixed,
                            Tick Now) {
  Strategy S;
  S.Kind = Stale.Kind;
  S.JobId = Stale.JobId;
  S.BuiltAt = Now;
  S.Scheduled = Stale.Scheduled;
  S.Levels = Stale.Levels;
  S.Variants.push_back(std::move(Fixed));
  return S;
}

size_t Strategy::feasibleCount() const {
  size_t Count = 0;
  for (const auto &V : Variants)
    if (V.feasible())
      ++Count;
  return Count;
}

const ScheduleVariant *Strategy::bestByCost() const {
  const ScheduleVariant *Best = nullptr;
  for (const auto &V : Variants) {
    if (!V.feasible())
      continue;
    if (!Best ||
        V.Result.Dist.economicCost() < Best->Result.Dist.economicCost())
      Best = &V;
  }
  return Best;
}

const ScheduleVariant *Strategy::bestByTime() const {
  const ScheduleVariant *Best = nullptr;
  for (const auto &V : Variants) {
    if (!V.feasible())
      continue;
    if (!Best || V.Result.Dist.makespan() < Best->Result.Dist.makespan())
      Best = &V;
  }
  return Best;
}

const ScheduleVariant *Strategy::bestFitting(const Grid &Current,
                                             OwnerId Ignore) const {
  const ScheduleVariant *Best = nullptr;
  for (const auto &V : Variants) {
    if (!V.feasible() || !V.Result.Dist.fitsGrid(Current, Ignore))
      continue;
    if (!Best ||
        V.Result.Dist.economicCost() < Best->Result.Dist.economicCost())
      Best = &V;
  }
  return Best;
}

std::vector<CollisionRecord> Strategy::allCollisions() const {
  std::vector<CollisionRecord> All;
  for (const auto &V : Variants)
    All.insert(All.end(), V.Result.Collisions.begin(),
               V.Result.Collisions.end());
  return All;
}

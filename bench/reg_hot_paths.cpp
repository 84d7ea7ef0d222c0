//===-- bench/reg_hot_paths.cpp - Scheduling hot-path microbenchmarks -----===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Microbenchmarks of the scheduling hot paths: timeline operations,
/// critical-work extraction, coarsening, the DP chain allocator via
/// `scheduleJob`, full strategy generation per type and the cluster
/// substrate. Each case runs a fixed number of operations on a fixed
/// input and records:
///  - `<case>.ops` and `<case>.checksum` (an FNV-1a fold of every
///    operation's result) as work counters, so a change to what a hot
///    path computes trips the ratchet;
///  - `<case>.ns_per_op` as an advisory metric.
///
/// Registered with Profile=false: the profiler's phases would sit
/// inside the timed loops.
///
//===----------------------------------------------------------------------===//

#include "batch/Cluster.h"
#include "core/Scheduler.h"
#include "core/Strategy.h"
#include "harness.h"
#include "job/Coarsen.h"
#include "job/Generator.h"
#include "metrics/Experiment.h"
#include "resource/Network.h"

#include <chrono>
#include <cmath>
#include <string>

using namespace cws;

namespace {

/// Folds one operation result into a checksum.
void fold(uint64_t &Sum, uint64_t V) {
  Sum = (Sum ^ V) * 0x100000001b3ull;
}

/// Runs \p Op \p Ops times and records the case's counters and metric;
/// \p Op returns the value folded into the checksum.
template <typename F>
void timeCase(bench::BenchContext &Ctx, const std::string &Name, uint64_t Ops,
              F &&Op) {
  uint64_t Sum = 0xcbf29ce484222325ull;
  auto T0 = std::chrono::steady_clock::now();
  for (uint64_t I = 0; I < Ops; ++I)
    fold(Sum, Op());
  double Ns = std::chrono::duration<double, std::nano>(
                  std::chrono::steady_clock::now() - T0)
                  .count();
  Ctx.setWork(Name + ".ops", Ops);
  Ctx.setWork(Name + ".checksum", Sum);
  Ctx.addMetric(Name + ".ns_per_op", Ns / static_cast<double>(Ops));
}

/// A random job on a random grid pre-loaded to 30-60 % busy.
struct LoadedCase {
  Job J;
  Grid Env;
  LoadedCase(uint64_t JobSeed, uint64_t GridSeed) {
    JobGenerator Gen(WorkloadConfig{}, JobSeed);
    J = Gen.next(0);
    Prng Rng(GridSeed);
    Env = Grid::makeRandom(GridConfig{}, Rng);
    preloadGrid(Env, J.deadline(), 0.3, 0.6, 2, 8, Rng);
  }
};

/// Folds what a distribution decided: its makespan and its price.
uint64_t distDigest(const Distribution &D) {
  return static_cast<uint64_t>(D.makespan()) * 1000003u +
         static_cast<uint64_t>(std::llround(D.economicCost() * 100));
}

uint64_t resultDigest(const ScheduleResult &R) {
  return distDigest(R.Dist) * 31u + R.Collisions.size() * 2u + R.Feasible;
}

} // namespace

CWS_BENCH(hot_paths, "microbenchmarks of the scheduling hot paths",
          /*Reps=*/3, /*Warmup=*/1, /*Profile=*/false) {
  Ctx.setConfig("cases=timeline,critical_work,coarsen,schedule_job,"
                "strategy_build,cluster\n");
  Network Net;

  timeCase(Ctx, "timeline_reserve_release", 2000, [] {
    Timeline T;
    uint64_t Placed = 0;
    for (Tick I = 0; I < 200; ++I)
      Placed += T.reserve(I * 10, I * 10 + 7, 1 + (I % 5));
    for (OwnerId O = 1; O <= 5; ++O)
      Placed += T.releaseOwner(O);
    return Placed;
  });

  Timeline Loaded;
  Prng Rng(1);
  for (int I = 0; I < 500; ++I) {
    Tick B = Rng.uniformInt(0, 10000);
    Loaded.reserve(B, B + Rng.uniformInt(1, 8), 1);
  }
  Tick Probe = 0;
  timeCase(Ctx, "timeline_earliest_fit", 200000, [&] {
    Tick Fit = Loaded.earliestFit(Probe, 6);
    Probe = (Probe + 97) % 10000;
    return static_cast<uint64_t>(Fit);
  });

  Job Phases = JobGenerator(WorkloadConfig{}, 7).next(0);
  timeCase(Ctx, "critical_work_phases", 50000, [&] {
    uint64_t Sum = 0;
    for (const CriticalWork &W : criticalWorkPhases(Phases))
      Sum = Sum * 31 + static_cast<uint64_t>(W.RefLength) + W.TaskIds.size();
    return Sum;
  });

  Job ToCoarsen = JobGenerator(WorkloadConfig{}, 8).next(0);
  timeCase(Ctx, "coarsen_job", 50000, [&] {
    CoarseJob C = coarsenJob(ToCoarsen);
    return C.Coarse.taskCount() * 1000 + C.Coarse.edgeCount();
  });

  Job Fig2 = makeFig2Job();
  Grid Fig2Env = Grid::makeFig2();
  timeCase(Ctx, "schedule_job_fig2", 20000, [&] {
    return resultDigest(scheduleJob(Fig2, Fig2Env, Net, SchedulerConfig{}, 42));
  });

  LoadedCase Random(9, 10);
  timeCase(Ctx, "schedule_job_random_loaded", 5000, [&] {
    return resultDigest(
        scheduleJob(Random.J, Random.Env, Net, SchedulerConfig{}, 42));
  });

  LoadedCase Build(11, 12);
  for (StrategyKind Kind : {StrategyKind::S1, StrategyKind::S2,
                            StrategyKind::S3, StrategyKind::MS1}) {
    StrategyConfig Config;
    Config.Kind = Kind;
    timeCase(Ctx, std::string("strategy_build_") + strategyName(Kind), 500,
             [&] {
               Strategy S = Strategy::build(Build.J, Build.Env, Net, Config, 42);
               uint64_t Sum = S.variants().size() * 1000 + S.feasibleCount();
               for (const ScheduleVariant &V : S.variants())
                 Sum = Sum * 31 + distDigest(V.Result.Dist);
               return Sum;
             });
  }

  BatchWorkloadConfig W;
  W.JobCount = 500;
  std::vector<BatchJob> Trace = makeBatchTrace(W, 13);
  ClusterConfig Cluster;
  Cluster.NodeCount = 16;
  Cluster.Backfill = BackfillMode::Easy;
  timeCase(Ctx, "cluster_fcfs_easy", 50, [&] {
    uint64_t Sum = 0;
    for (const BatchOutcome &O : runCluster(Cluster, Trace))
      Sum += static_cast<uint64_t>(O.Start);
    return Sum;
  });
}

//===-- bench/reg_strategy_build_throughput.cpp - Build throughput --------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the strategy-build throughput (builds/sec) on the simulator's
/// standard workload. A first pass counts the work; a second, timed pass
/// builds every strategy again on the thread's warm scratch state (the
/// lane grids and chain-DP buffers a thread keeps from build to build),
/// and the check requires the rebuild to equal the first build, variant
/// for variant down to placement costs, collision records and critical
/// works. The variant totals, the schedules actually built and the DP
/// labels of the first pass are work counters, so a change to the
/// variant set or to the work behind it (not just its speed) trips the
/// ratchet.
///
//===----------------------------------------------------------------------===//

#include "core/Strategy.h"
#include "harness.h"
#include "job/Generator.h"
#include "resource/Grid.h"
#include "resource/Network.h"
#include "support/Prng.h"

#include <chrono>
#include <string>
#include <vector>

using namespace cws;

namespace {

constexpr int64_t Jobs = 50;
constexpr uint64_t Seed = 42;

/// Seconds of wall clock Fn takes.
template <typename F> double seconds(F &&Fn) {
  auto T0 = std::chrono::steady_clock::now();
  Fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

/// True when both strategies hold variant-for-variant identical
/// supporting schedules: placements with their costs, collision records
/// and critical works.
bool identicalStrategies(const Strategy &A, const Strategy &B) {
  if (A.variants().size() != B.variants().size() || A.levels() != B.levels())
    return false;
  for (size_t I = 0; I < A.variants().size(); ++I) {
    const ScheduleVariant &VA = A.variants()[I];
    const ScheduleVariant &VB = B.variants()[I];
    if (VA.Level != VB.Level || VA.Bias != VB.Bias ||
        VA.feasible() != VB.feasible())
      return false;
    const Distribution &DA = VA.Result.Dist;
    const Distribution &DB = VB.Result.Dist;
    if (DA.size() != DB.size())
      return false;
    for (const Placement &P : DA.placements()) {
      const Placement *Q = DB.find(P.TaskId);
      if (!Q || Q->NodeId != P.NodeId || Q->Start != P.Start ||
          Q->End != P.End || Q->EconomicCost != P.EconomicCost)
        return false;
    }
    const std::vector<CollisionRecord> &CA = VA.Result.Collisions;
    const std::vector<CollisionRecord> &CB = VB.Result.Collisions;
    if (CA.size() != CB.size())
      return false;
    for (size_t K = 0; K < CA.size(); ++K)
      if (CA[K].TaskId != CB[K].TaskId || CA[K].NodeId != CB[K].NodeId ||
          CA[K].BlockingOwner != CB[K].BlockingOwner ||
          CA[K].WantedStart != CB[K].WantedStart ||
          CA[K].ActualStart != CB[K].ActualStart ||
          CA[K].Resolution != CB[K].Resolution)
        return false;
    const std::vector<CriticalWork> &WA = VA.Result.Phases;
    const std::vector<CriticalWork> &WB = VB.Result.Phases;
    if (WA.size() != WB.size())
      return false;
    for (size_t K = 0; K < WA.size(); ++K)
      if (WA[K].TaskIds != WB[K].TaskIds || WA[K].RefLength != WB[K].RefLength)
        return false;
  }
  return true;
}

} // namespace

CWS_BENCH(strategy_build_throughput,
          "strategy builds per second on the standard workload",
          /*Reps=*/3, /*Warmup=*/1, /*Profile=*/true) {
  Ctx.setSeed(Seed);
  Ctx.setExecSeed(Seed);
  Ctx.setConfig("jobs=" + std::to_string(Jobs) + "\nstrategy=S1\n");

  // The simulator's standard workload and environment.
  Prng Root(Seed);
  Grid Env = Grid::makeRandom(GridConfig{}, Root);
  JobGenerator Gen(WorkloadConfig{}, Seed + 1);
  std::vector<Job> Workload;
  Workload.reserve(static_cast<size_t>(Jobs));
  for (int64_t I = 0; I < Jobs; ++I)
    Workload.push_back(Gen.next());
  Network Net;
  StrategyConfig Config;

  auto BuildAll = [&] {
    std::vector<Strategy> Out;
    Out.reserve(Workload.size());
    for (const Job &J : Workload)
      Out.push_back(Strategy::build(J, Env, Net, Config, /*Owner=*/1));
    return Out;
  };

  uint64_t Built0 = bench::phaseWork("strategy.build", "variants_built");
  uint64_t Labels0 = bench::phaseWork("chain.dp", "labels");
  std::vector<Strategy> First = BuildAll();
  uint64_t Built =
      bench::phaseWork("strategy.build", "variants_built") - Built0;
  uint64_t Labels = bench::phaseWork("chain.dp", "labels") - Labels0;

  uint64_t Variants = 0, Feasible = 0;
  for (const Strategy &S : First) {
    Variants += S.variants().size();
    Feasible += S.feasibleCount();
  }
  Ctx.setWork("jobs", static_cast<uint64_t>(Jobs));
  Ctx.setWork("variants_total", Variants);
  Ctx.setWork("feasible_total", Feasible);
  Ctx.setWork("variants_built", Built);
  Ctx.setWork("dp_labels", Labels);

  std::vector<Strategy> Again;
  double Sec = seconds([&] { Again = BuildAll(); });
  bool Identical = true;
  for (size_t I = 0; I < First.size(); ++I)
    Identical = Identical && identicalStrategies(First[I], Again[I]);
  Ctx.check("a rebuild on the thread's warm scratch state is identical to "
            "the first build",
            Identical);
  Ctx.addMetric("serial_builds_per_sec", static_cast<double>(Jobs) / Sec);
}

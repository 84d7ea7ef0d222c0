//===-- bench/reg_ablation_coarsen.cpp - Granularity ablation -------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation of the coarse-grain transformation behind S3: the
/// macro-task size bound sweeps from 1 (no merging) to unbounded over
/// 1,200 random jobs on pre-loaded grids, showing the granularity
/// trade-off — fewer data exchanges and lower CF versus shrinking
/// admissibility under tight deadlines.
///
/// Work counters: `jobs`; per bound `bound<b>` (`bound0` is
/// unbounded): `tasks_sum` and `edges_sum` of the coarsened jobs,
/// `admissible`, and over the jobs with a cheapest variant (`best`)
/// `cf_sum` and `makespan_sum`.
///
//===----------------------------------------------------------------------===//

#include "core/Strategy.h"
#include "harness.h"
#include "job/Generator.h"
#include "metrics/Experiment.h"
#include "resource/Network.h"

#include <string>

using namespace cws;

CWS_BENCH(ablation_coarsen, "ablation: S3 coarse-grain macro-task size bound",
          /*Reps=*/1, /*Warmup=*/0, /*Profile=*/true) {
  constexpr size_t Jobs = 1200;
  constexpr uint64_t Seed = 2009;
  Ctx.setSeed(Seed);
  Ctx.setConfig("jobs=" + std::to_string(Jobs) + "\n");
  Ctx.setWork("jobs", Jobs);

  // Bound 1 disables merging entirely; 0 means unbounded.
  for (Tick Bound : {1, 4, 6, 8, 12, 0}) {
    JobGenerator Gen(WorkloadConfig{}, Seed);
    Prng EnvRng(Seed ^ 0xc0a5);
    Prng LoadRng(Seed ^ 0x10ad);
    Network Net;
    uint64_t Tasks = 0, Edges = 0, Admissible = 0, Best = 0, Cf = 0,
             Makespan = 0;
    for (size_t I = 0; I < Jobs; ++I) {
      Job J = Gen.next(0);
      Grid Env = Grid::makeRandom(GridConfig{}, EnvRng);
      preloadGrid(Env, J.deadline(), 0.35, 0.75, 2, 10, LoadRng);
      StrategyConfig Config;
      Config.Kind = StrategyKind::S3;
      Config.CoarsenMaxRef = Bound;
      Strategy S = Strategy::build(J, Env, Net, Config, 42);
      Tasks += S.scheduledJob().taskCount();
      Edges += S.scheduledJob().edgeCount();
      Admissible += S.admissible();
      if (const ScheduleVariant *V = S.bestByCost()) {
        ++Best;
        Cf += static_cast<uint64_t>(
            V->Result.Dist.costFunction(S.scheduledJob()));
        Makespan += static_cast<uint64_t>(V->Result.Dist.makespan());
      }
    }
    std::string Key = "bound" + std::to_string(Bound) + ".";
    Ctx.setWork(Key + "tasks_sum", Tasks);
    Ctx.setWork(Key + "edges_sum", Edges);
    Ctx.setWork(Key + "admissible", Admissible);
    Ctx.setWork(Key + "best", Best);
    Ctx.setWork(Key + "cf_sum", Cf);
    Ctx.setWork(Key + "makespan_sum", Makespan);
  }
}

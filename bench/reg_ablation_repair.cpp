//===-- bench/reg_ablation_repair.cpp - Collision repair ablation ---------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation of the inter-chain collision repair mechanism: when a later
/// critical work cannot fit the windows left by earlier ones, the
/// scheduler may release and reschedule the blocking placements. The
/// sweep varies the repair budget (0 disables the mechanism) over 1,500
/// random jobs on pre-loaded grids, under cost and time bias.
///
/// Work counters: `jobs`; per budget `budget<b>`: `cost_feasible` and
/// `time_feasible`, and over the cost-bias feasible jobs
/// `collisions_sum` and `econ_cost_x100`.
///
//===----------------------------------------------------------------------===//

#include "core/Scheduler.h"
#include "harness.h"
#include "job/Generator.h"
#include "metrics/Experiment.h"
#include "resource/Network.h"

#include <cmath>
#include <string>

using namespace cws;

CWS_BENCH(ablation_repair, "ablation: inter-chain collision repair budget",
          /*Reps=*/1, /*Warmup=*/0, /*Profile=*/true) {
  constexpr size_t Jobs = 1500;
  constexpr uint64_t Seed = 2009;
  Ctx.setSeed(Seed);
  Ctx.setConfig("jobs=" + std::to_string(Jobs) + "\n");
  Ctx.setWork("jobs", Jobs);

  for (int Budget : {0, 1, 2, 4, 8}) {
    JobGenerator Gen(WorkloadConfig{}, Seed);
    Prng EnvRng(Seed ^ 0x51ed);
    Prng LoadRng(Seed ^ 0x10ad);
    Network Net;
    uint64_t CostFeasible = 0, TimeFeasible = 0, Collisions = 0;
    double Cost = 0;
    for (size_t I = 0; I < Jobs; ++I) {
      Job J = Gen.next(0);
      Grid Env = Grid::makeRandom(GridConfig{}, EnvRng);
      preloadGrid(Env, J.deadline(), 0.3, 0.6, 2, 8, LoadRng);
      for (OptimizationBias Bias :
           {OptimizationBias::Cost, OptimizationBias::Time}) {
        SchedulerConfig Config;
        Config.Alloc.Bias = Bias;
        Config.RepairBudget = Budget;
        ScheduleResult R = scheduleJob(J, Env, Net, Config, 42);
        if (!R.Feasible)
          continue;
        if (Bias == OptimizationBias::Time) {
          ++TimeFeasible;
          continue;
        }
        ++CostFeasible;
        Collisions += R.Collisions.size();
        Cost += R.Dist.economicCost();
      }
    }
    std::string Key = "budget" + std::to_string(Budget) + ".";
    Ctx.setWork(Key + "cost_feasible", CostFeasible);
    Ctx.setWork(Key + "time_feasible", TimeFeasible);
    Ctx.setWork(Key + "collisions_sum", Collisions);
    Ctx.setWork(Key + "econ_cost_x100",
                static_cast<uint64_t>(std::llround(Cost * 100)));
  }
}

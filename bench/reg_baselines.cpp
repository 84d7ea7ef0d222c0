//===-- bench/reg_baselines.cpp - Ablation vs classic schedulers ----------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation: the critical works method against the structure-blind
/// mapping heuristics of the paper's reference [13] (on the jobs' task
/// sets, ignoring precedence) and against HEFT (structure-aware,
/// makespan-only), on the same 500 random jobs and empty random grids.
///
/// Work counters: `jobs`; for the critical works method under each
/// bias (`cw_cost`, `cw_time`) the `feasible` count and, over feasible
/// jobs, `makespan_sum` and `econ_cost_x100`; for `heft` the
/// `deadline_hits`, `makespan_sum` and `econ_cost_x100` over every
/// job; per independent-task heuristic (`olb`, `met`, ...) the
/// `makespan_sum` over every job.
///
//===----------------------------------------------------------------------===//

#include "baseline/Heft.h"
#include "baseline/Heuristics.h"
#include "core/Scheduler.h"
#include "harness.h"
#include "job/Generator.h"
#include "resource/Network.h"

#include <cmath>
#include <string>

using namespace cws;

namespace {

/// Sums of one scheduler's results over the population.
struct Sums {
  uint64_t Hits = 0;
  uint64_t Makespan = 0;
  double Cost = 0;

  void add(Tick Span, double Price) {
    Makespan += static_cast<uint64_t>(Span);
    Cost += Price;
  }
};

} // namespace

CWS_BENCH(baselines, "ablation: critical works vs HEFT and independent-task "
                     "mapping heuristics",
          /*Reps=*/1, /*Warmup=*/0, /*Profile=*/true) {
  constexpr size_t Jobs = 500;
  constexpr uint64_t Seed = 2009;
  Ctx.setSeed(Seed);
  Ctx.setConfig("jobs=" + std::to_string(Jobs) + "\n");

  JobGenerator Gen(WorkloadConfig{}, Seed);
  Prng EnvRng(Seed ^ 0x9e3779b9);
  Network Net;
  Sums CwCost, CwTime, Heft;
  uint64_t HeurMakespan[6] = {};

  for (size_t I = 0; I < Jobs; ++I) {
    Job J = Gen.next(0);
    Grid Env = Grid::makeRandom(GridConfig{}, EnvRng);

    SchedulerConfig ByCost;
    SchedulerConfig ByTime;
    ByTime.Alloc.Bias = OptimizationBias::Time;
    ScheduleResult RC = scheduleJob(J, Env, Net, ByCost, 42);
    ScheduleResult RT = scheduleJob(J, Env, Net, ByTime, 42);
    HeftResult RH = scheduleHeft(J, Env, Net);

    if (RC.Feasible) {
      ++CwCost.Hits;
      CwCost.add(RC.Dist.makespan(), RC.Dist.economicCost());
    }
    if (RT.Feasible) {
      ++CwTime.Hits;
      CwTime.add(RT.Dist.makespan(), RT.Dist.economicCost());
    }
    Heft.Hits += RH.MeetsDeadline;
    Heft.add(RH.Makespan, RH.Dist.economicCost());

    // Structure-blind heuristics on the same task set: the ETC matrix
    // ignores data dependencies entirely.
    std::vector<std::vector<Tick>> Etc(J.taskCount(),
                                       std::vector<Tick>(Env.size()));
    for (const auto &Task : J.tasks())
      for (const auto &N : Env.nodes())
        Etc[Task.Id][N.id()] = N.execTicks(Task.RefTicks);
    for (size_t H = 0; H < 6; ++H)
      HeurMakespan[H] += static_cast<uint64_t>(
          mapIndependentTasks(Etc, std::vector<Tick>(Env.size(), 0),
                              AllMappingHeuristics[H])
              .Makespan);
  }

  Ctx.setWork("jobs", Jobs);
  auto Record = [&Ctx](const std::string &Name, const char *HitName,
                       const Sums &S) {
    Ctx.setWork(Name + "." + HitName, S.Hits);
    Ctx.setWork(Name + ".makespan_sum", S.Makespan);
    Ctx.setWork(Name + ".econ_cost_x100",
                static_cast<uint64_t>(std::llround(S.Cost * 100)));
  };
  Record("cw_cost", "feasible", CwCost);
  Record("cw_time", "feasible", CwTime);
  Record("heft", "deadline_hits", Heft);
  for (size_t H = 0; H < 6; ++H)
    Ctx.setWork(std::string(mappingHeuristicName(AllMappingHeuristics[H])) +
                    ".makespan_sum",
                HeurMakespan[H]);
}

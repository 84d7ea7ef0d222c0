//===-- bench/reg_ablation_levels.cpp - Coverage and front-size ablation --===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two ablations of strategy generation over 800 random jobs on
/// pre-loaded grids:
///  1. estimation-level coverage (MS1-vs-S1 generalized): more levels
///     mean more supporting schedules and better survival when 30
///     background jobs age the environment, at generation cost;
///  2. the Pareto front cap of the DP chain allocator: how small the
///     front can get before schedule quality degrades.
///
/// Work counters: `jobs`; per level count `levels<n>`: `variants_sum`,
/// `admissible` and `survives` (of the admissible jobs); per front cap
/// `front<n>`: `feasible`, and over feasible jobs `econ_cost_x100` and
/// `makespan_sum`. Generation wall time per job is the advisory metric
/// `levels<n>.gen_us_per_job`.
///
//===----------------------------------------------------------------------===//

#include "core/Strategy.h"
#include "flow/BackgroundLoad.h"
#include "harness.h"
#include "job/Generator.h"
#include "metrics/Experiment.h"
#include "resource/Network.h"

#include <chrono>
#include <cmath>
#include <string>

using namespace cws;

CWS_BENCH(ablation_levels, "ablation: estimation-level coverage and the DP "
                           "front cap",
          /*Reps=*/1, /*Warmup=*/0, /*Profile=*/true) {
  constexpr size_t Jobs = 800;
  constexpr uint64_t Seed = 2009;
  Ctx.setSeed(Seed);
  Ctx.setConfig("jobs=" + std::to_string(Jobs) + "\n");
  Ctx.setWork("jobs", Jobs);
  Network Net;

  for (size_t Levels : {2, 3, 4, 6}) {
    JobGenerator Gen(WorkloadConfig{}, Seed);
    Prng EnvRng(Seed ^ 1);
    Prng LoadRng(Seed ^ 2);
    Prng AgeRng(Seed ^ 3);
    uint64_t Variants = 0, Admissible = 0, Survives = 0;
    auto T0 = std::chrono::steady_clock::now();
    for (size_t I = 0; I < Jobs; ++I) {
      Job J = Gen.next(0);
      Grid Env = Grid::makeRandom(GridConfig{}, EnvRng);
      preloadGrid(Env, J.deadline(), 0.25, 0.55, 2, 8, LoadRng);
      StrategyConfig Config;
      Config.MaxLevels = Levels;
      Strategy S = Strategy::build(J, Env, Net, Config, 42);
      Variants += S.variants().size();
      if (!S.admissible())
        continue;
      ++Admissible;
      // Age the environment with 30 background jobs, then ask whether
      // any supporting schedule still fits.
      for (int Step = 0; Step < 30; ++Step) {
        unsigned Node = static_cast<unsigned>(AgeRng.index(Env.size()));
        Tick Dur = AgeRng.uniformInt(2, 8);
        Timeline &Line = Env.node(Node).timeline();
        Tick Start = Line.earliestFit(AgeRng.uniformInt(0, J.deadline()), Dur);
        Line.reserve(Start, Start + Dur, BackgroundOwner);
      }
      Survives += S.bestFitting(Env) != nullptr;
    }
    double Us = std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - T0)
                    .count();
    std::string Key = "levels" + std::to_string(Levels) + ".";
    Ctx.setWork(Key + "variants_sum", Variants);
    Ctx.setWork(Key + "admissible", Admissible);
    Ctx.setWork(Key + "survives", Survives);
    Ctx.addMetric(Key + "gen_us_per_job", Us / static_cast<double>(Jobs));
  }

  for (size_t Front : {2, 4, 8, 16}) {
    JobGenerator Gen(WorkloadConfig{}, Seed);
    Prng EnvRng(Seed ^ 4);
    Prng LoadRng(Seed ^ 5);
    uint64_t Feasible = 0, Makespan = 0;
    double Cost = 0;
    for (size_t I = 0; I < Jobs; ++I) {
      Job J = Gen.next(0);
      Grid Env = Grid::makeRandom(GridConfig{}, EnvRng);
      preloadGrid(Env, J.deadline(), 0.25, 0.55, 2, 8, LoadRng);
      SchedulerConfig Config;
      Config.Alloc.MaxFrontSize = Front;
      ScheduleResult R = scheduleJob(J, Env, Net, Config, 42);
      if (!R.Feasible)
        continue;
      ++Feasible;
      Cost += R.Dist.economicCost();
      Makespan += static_cast<uint64_t>(R.Dist.makespan());
    }
    std::string Key = "front" + std::to_string(Front) + ".";
    Ctx.setWork(Key + "feasible", Feasible);
    Ctx.setWork(Key + "econ_cost_x100",
                static_cast<uint64_t>(std::llround(Cost * 100)));
    Ctx.setWork(Key + "makespan_sum", Makespan);
  }
}

//===-- bench/reg_runtime_deviation.cpp - Schedule reliability ------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// "Actual solving time Ti for a task can be different from user
/// estimation Tij" — this study executes committed schedules under
/// increasing runtime uncertainty (500 jobs per level and strategy
/// type) and measures reliability (deadline hits, kills at the wall
/// limit) and completion-forecast error. The question behind it: whose
/// supporting schedules degrade gracefully when estimates are wrong?
///
/// Work counters, per uncertainty level (`exact`, `optimistic`,
/// `noisy`, `underestimated`) and strategy type `<K>`: `executed`
/// (committed and executed jobs), `deadline_hits` and `killed` of
/// those, and over the `succeeded` ones `gain_early_sum` and
/// `gain_late_sum` (completion gain split by sign; mean gain =
/// (early - late) / succeeded) and `early_finishes_sum`.
///
//===----------------------------------------------------------------------===//

#include "core/Strategy.h"
#include "flow/Execution.h"
#include "harness.h"
#include "job/Generator.h"
#include "resource/Network.h"

#include <string>

using namespace cws;

CWS_BENCH(runtime_deviation, "schedule reliability under runtime "
                             "uncertainty per strategy type",
          /*Reps=*/1, /*Warmup=*/0, /*Profile=*/true) {
  constexpr size_t Jobs = 500;
  constexpr uint64_t Seed = 2009;
  Ctx.setSeed(Seed);
  Ctx.setConfig("jobs=" + std::to_string(Jobs) + "\n");

  struct Level {
    const char *Name;
    double Lo, Hi;
  };
  const Level Levels[] = {
      {"exact", 1.0, 1.0},
      {"optimistic", 0.6, 1.0},
      {"noisy", 0.6, 1.1},
      {"underestimated", 0.8, 1.3},
  };
  for (const Level &L : Levels)
    for (StrategyKind Kind :
         {StrategyKind::S1, StrategyKind::S2, StrategyKind::S3}) {
      WorkloadConfig W;
      W.DeadlineSlack = 2.0;
      JobGenerator Gen(W, Seed);
      Prng EnvRng(Seed ^ 0xe0e0);
      Prng ExecRng(Seed ^ 0xfafa);
      Network Net;
      uint64_t Executed = 0, Hits = 0, Killed = 0, Succeeded = 0,
               GainEarly = 0, GainLate = 0, Early = 0;
      for (size_t I = 0; I < Jobs; ++I) {
        Job J = Gen.next(0);
        Grid Env = Grid::makeRandom(GridConfig{}, EnvRng);
        StrategyConfig SC;
        SC.Kind = Kind;
        Strategy S = Strategy::build(J, Env, Net, SC, 42);
        const ScheduleVariant *Best = S.bestByCost();
        if (!Best)
          continue;
        Distribution D = Best->Result.Dist;
        if (!D.commit(Env, 42))
          continue;
        ExecutionConfig EC;
        EC.FactorLo = L.Lo;
        EC.FactorHi = L.Hi;
        EC.DataKind = strategyDataPolicy(Kind);
        ExecutionResult R =
            executeDistribution(S.scheduledJob(), D, Env, ExecRng, EC);
        ++Executed;
        Hits += R.Succeeded && R.MetDeadline;
        Killed += R.Kills > 0;
        if (!R.Succeeded)
          continue;
        ++Succeeded;
        if (R.CompletionGain >= 0)
          GainEarly += static_cast<uint64_t>(R.CompletionGain);
        else
          GainLate += static_cast<uint64_t>(-R.CompletionGain);
        Early += R.EarlyFinishes;
      }
      std::string Key = std::string(L.Name) + "." + strategyName(Kind) + ".";
      Ctx.setWork(Key + "executed", Executed);
      Ctx.setWork(Key + "deadline_hits", Hits);
      Ctx.setWork(Key + "killed", Killed);
      Ctx.setWork(Key + "succeeded", Succeeded);
      Ctx.setWork(Key + "gain_early_sum", GainEarly);
      Ctx.setWork(Key + "gain_late_sum", GainLate);
      Ctx.setWork(Key + "early_finishes_sum", Early);
    }
}

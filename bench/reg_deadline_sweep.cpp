//===-- bench/reg_deadline_sweep.cpp - QoS pressure sensitivity -----------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sensitivity of the Fig. 3a result to QoS pressure: admissibility per
/// strategy type as the fixed-completion-time slack sweeps from brutal
/// (1.2) to comfortable (2.8), 1,000 `runFig3` jobs per level. Shows
/// where the strategy types separate and where S3 (coarse grain)
/// catches up — the crossover structure behind the paper's single
/// operating point.
///
/// Work counters: `jobs` per level, and
/// `slack<s x 100>.<K>.admissible` per slack level and strategy type.
///
//===----------------------------------------------------------------------===//

#include "harness.h"
#include "metrics/Experiment.h"

#include <cmath>
#include <string>

using namespace cws;

CWS_BENCH(deadline_sweep, "Fig. 3a admissibility vs deadline slack",
          /*Reps=*/1, /*Warmup=*/0, /*Profile=*/true) {
  constexpr size_t Jobs = 1000;
  constexpr uint64_t Seed = 2009;
  Ctx.setSeed(Seed);
  Ctx.setConfig("jobs=" + std::to_string(Jobs) + "\n");
  Ctx.setWork("jobs", Jobs);

  for (double Slack : {1.2, 1.35, 1.5, 1.8, 2.2, 2.8}) {
    Fig3Config Config;
    Config.JobCount = Jobs;
    Config.Seed = Seed;
    Config.Workload.DeadlineSlack = Slack;
    std::string Key = "slack" + std::to_string(std::lround(Slack * 100)) + ".";
    for (const Fig3Row &R : runFig3(Config))
      Ctx.setWork(Key + strategyName(R.Kind) + ".admissible", R.Admissible);
  }
}

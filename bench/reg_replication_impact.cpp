//===-- bench/reg_replication_impact.cpp - Data replication impact --------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The data-grid angle the paper leans on (its refs [18, 19]: "The
/// Impact of Data Replication on Job Scheduling Performance"): how much
/// of S1's advantage comes from replication being fast and cheap? The
/// replication latency factor sweeps from near-instant (0.1) to
/// no-better-than-remote (1.0), 1,200 `runFig3` jobs per level, for S1
/// against the S2 (remote access) baseline.
///
/// Work counters: `jobs` per level; per factor `factor<f x 100>`:
/// `S1.admissible`, `S2.admissible`, `S1.intra_cost_fast` and
/// `S1.intra_cost_slow` (cost-bias collisions between S1's own critical
/// works) and `S1.feasible_variants` (a sum over jobs).
///
//===----------------------------------------------------------------------===//

#include "harness.h"
#include "metrics/Experiment.h"

#include <cmath>
#include <string>

using namespace cws;

CWS_BENCH(replication_impact, "impact of replication speed on S1's "
                              "admissibility and collisions",
          /*Reps=*/1, /*Warmup=*/0, /*Profile=*/true) {
  constexpr size_t Jobs = 1200;
  constexpr uint64_t Seed = 2009;
  Ctx.setSeed(Seed);
  Ctx.setConfig("jobs=" + std::to_string(Jobs) + "\n");
  Ctx.setWork("jobs", Jobs);

  for (double Factor : {0.1, 0.25, 0.4, 0.6, 0.8, 1.0}) {
    Fig3Config Config;
    Config.JobCount = Jobs;
    Config.Seed = Seed;
    Config.StrategyCfg.DataConfig.ReplicationFactor = Factor;
    Config.Kinds = {StrategyKind::S1, StrategyKind::S2};
    std::vector<Fig3Row> Rows = runFig3(Config);
    const Fig3Row &S1 = Rows[0];
    std::string Key = "factor" + std::to_string(std::lround(Factor * 100)) + ".";
    Ctx.setWork(Key + "S1.admissible", S1.Admissible);
    Ctx.setWork(Key + "S2.admissible", Rows[1].Admissible);
    Ctx.setWork(Key + "S1.intra_cost_fast", S1.IntraCost.Fast);
    Ctx.setWork(Key + "S1.intra_cost_slow", S1.IntraCost.Slow);
    Ctx.setWork(Key + "S1.feasible_variants",
                static_cast<uint64_t>(std::llround(
                    S1.MeanFeasibleVariants * static_cast<double>(S1.Jobs))));
  }
}

//===-- bench/reg_fig3.cpp - Fig. 3a/3b application-level study -----------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One `runFig3` study (12,000 random compound jobs, each against a
/// freshly pre-loaded random environment) yields both panels:
///  - Fig. 3a: the share of experiments with admissible
///    application-level schedules per strategy type (paper: S1 38 %,
///    S2 37 %, S3 33 %);
///  - Fig. 3b: how collisions between tasks of different critical works
///    split between fast and slow nodes (paper: S1 32/68, S2 56/44,
///    S3 74/26). The headline split uses the cost-optimized variants
///    (the paper's CF-driven method); the time-optimized ones and the
///    collisions against pre-existing load are recorded separately.
///
/// Work counters, per strategy type `S<k>`: `jobs`, `admissible`,
/// `variants` and `feasible_variants` (sums over jobs), and the fast /
/// slow collision counts `intra_cost_{fast,slow}`,
/// `intra_time_{fast,slow}` and `background_{fast,slow}`.
///
//===----------------------------------------------------------------------===//

#include "harness.h"
#include "metrics/Experiment.h"

#include <cmath>
#include <string>

using namespace cws;

CWS_BENCH(fig3, "Fig. 3a admissible schedules and Fig. 3b collision split "
                "per strategy type",
          /*Reps=*/1, /*Warmup=*/0, /*Profile=*/true) {
  Fig3Config Config;
  Ctx.setSeed(Config.Seed);
  Ctx.setConfig("jobs=" + std::to_string(Config.JobCount) + "\n");
  std::vector<Fig3Row> Rows = runFig3(Config);

  for (const Fig3Row &R : Rows) {
    std::string Key = std::string(strategyName(R.Kind)) + ".";
    auto Jobs = static_cast<double>(R.Jobs);
    Ctx.setWork(Key + "jobs", R.Jobs);
    Ctx.setWork(Key + "admissible", R.Admissible);
    Ctx.setWork(Key + "variants",
                static_cast<uint64_t>(std::llround(R.MeanVariants * Jobs)));
    Ctx.setWork(Key + "feasible_variants",
                static_cast<uint64_t>(
                    std::llround(R.MeanFeasibleVariants * Jobs)));
    Ctx.setWork(Key + "intra_cost_fast", R.IntraCost.Fast);
    Ctx.setWork(Key + "intra_cost_slow", R.IntraCost.Slow);
    Ctx.setWork(Key + "intra_time_fast", R.IntraTime.Fast);
    Ctx.setWork(Key + "intra_time_slow", R.IntraTime.Slow);
    Ctx.setWork(Key + "background_fast", R.Background.Fast);
    Ctx.setWork(Key + "background_slow", R.Background.Slow);
  }

  // Rows are S1, S2, S3 (Fig3Config's default kinds).
  bool Partial = true;
  for (const Fig3Row &R : Rows)
    Partial = Partial && R.admissiblePercent() < 70.0;
  Ctx.check("fig3a: admissibility is well below 100 % (under 70 %) for "
            "every strategy",
            Partial);
  Ctx.check("fig3a: admissibility orders S1 >= S2 > S3",
            Rows[0].Admissible >= Rows[1].Admissible &&
                Rows[1].Admissible > Rows[2].Admissible);
  Ctx.check("fig3b: the fast-node share of collisions grows from S1 to S2 "
            "to S3",
            Rows[0].IntraCost.fastPercent() < Rows[1].IntraCost.fastPercent() &&
                Rows[1].IntraCost.fastPercent() <
                    Rows[2].IntraCost.fastPercent());
}

//===-- bench/reg_multiflow.cpp - Competing job flows ---------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fig. 1 shows job flows i, j, k that "intersect each other on nodes".
/// This study puts the strategy types into direct competition: one flow
/// per type, fed round-robin from the same 600-job arrival stream on
/// the same grid. Unlike the isolated Fig. 4 runs, each flow's
/// reservations are part of every other flow's environment.
///
/// Work counters, per flow `<K>`: `jobs`, `admissible`, `committed`,
/// `shift_recovered`, over committed jobs `cf_sum` and
/// `econ_cost_x100`, `ttl_sum` over `ttl_samples` (admissible jobs
/// whose strategy expired), and `load_{fast,medium,slow}_pct_x1000`
/// (the flow's group load in percent, times 1000).
///
//===----------------------------------------------------------------------===//

#include "harness.h"
#include "metrics/Experiment.h"

#include <cmath>
#include <string>

using namespace cws;

CWS_BENCH(multiflow, "competing strategy flows on one grid",
          /*Reps=*/1, /*Warmup=*/0, /*Profile=*/true) {
  constexpr uint64_t Seed = 2009;
  VoConfig Config = makeFig4VoConfig();
  Config.JobCount = 600;
  Ctx.setSeed(Seed);
  Ctx.setConfig("jobs=" + std::to_string(Config.JobCount) + "\n");

  std::vector<VoRunResult> Results = runMultiFlowVo(
      Config,
      {StrategyKind::S1, StrategyKind::S2, StrategyKind::S3, StrategyKind::MS1},
      Seed);
  for (const VoRunResult &Run : Results) {
    VoAggregates A = summarizeVo(Run);
    std::string Key = std::string(strategyName(Run.Kind)) + ".";
    Ctx.setWork(Key + "jobs", A.Jobs);
    Ctx.setWork(Key + "admissible", A.Admissible);
    Ctx.setWork(Key + "committed", A.Committed);
    Ctx.setWork(Key + "shift_recovered", A.ShiftRecovered);
    Ctx.setWork(Key + "cf_sum", static_cast<uint64_t>(A.CfSum));
    Ctx.setWork(Key + "econ_cost_x100",
                static_cast<uint64_t>(std::llround(A.CostSum * 100)));
    Ctx.setWork(Key + "ttl_sum", static_cast<uint64_t>(A.TtlSum));
    Ctx.setWork(Key + "ttl_samples", A.TtlSamples);
    const char *Groups[] = {"fast", "medium", "slow"};
    for (size_t G = 0; G < 3; ++G)
      Ctx.setWork(Key + "load_" + Groups[G] + "_pct_x1000",
                  static_cast<uint64_t>(
                      std::llround(Run.JobLoadPercent[G] * 1000)));
  }
}

//===-- bench/reg_fig4.cpp - Fig. 4a/4b/4c coordinated two-level study ----===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Four virtual-organization runs (S1, S2, S3, MS1; 400 compound jobs
/// each on the same seed, hence the same environment and job flow)
/// yield all three panels of Fig. 4:
///  - 4a: average node load per performance group (paper: S1 leans on
///    slow nodes, S3 toward the high-performance end, S2 in between);
///  - 4b: relative job completion cost (CF) and task execution time of
///    MS1 / S2 / S3, *paired* over the jobs all three committed, so a
///    strategy that rejects the hard jobs cannot look fast on the easy
///    remainder;
///  - 4c: relative strategy time-to-live and the start-deviation to
///    run-time ratio of MS1 / S2 / S3.
///
/// Work counters, per strategy type `<K>`:
///  - `load_{fast,medium,slow}_pct_x1000`: the group load in percent,
///    times 1000;
///  - `jobs`, `committed`, `switched`, `reallocated`, and `ttl_sum`
///    over `ttl_samples` (admissible jobs whose strategy expired);
///  - `dev_run_ratio_sum_x1e6`: the sum over committed jobs of start
///    deviation / run time, times 10^6;
///  - for MS1, S2 and S3, over the `paired_jobs` all three committed:
///    `paired_cf_sum`, `paired_econ_cost_x100` and
///    `paired_completion_sum` (completion minus arrival).
///
/// Three of the printed claims are refuted by the runs' own numbers
/// (EXPERIMENTS.md lists them as deviations). They are the 0/1 counters
/// `claim_fig4b_s3_slowest`, `claim_fig4b_ms1_slower_than_s2` and
/// `claim_fig4c_s2_least_deviation`, so a flip either way is a ratchet
/// finding.
///
//===----------------------------------------------------------------------===//

#include "harness.h"
#include "metrics/Experiment.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

using namespace cws;

namespace {

/// One strategy type's sums over the jobs MS1, S2 and S3 all committed.
struct PairedSums {
  uint64_t Cf = 0;
  double Econ = 0;
  uint64_t Completion = 0;
};

uint64_t scaled(double X, double Scale) {
  return static_cast<uint64_t>(std::llround(X * Scale));
}

} // namespace

CWS_BENCH(fig4, "Fig. 4a group load, 4b paired cost and time, 4c TTL and "
                "start deviation per strategy type",
          /*Reps=*/1, /*Warmup=*/0, /*Profile=*/true) {
  Fig4Config Config;
  Config.Vo.JobCount = 400;
  Ctx.setSeed(Config.Seed);
  Ctx.setConfig("jobs=" + std::to_string(Config.Vo.JobCount) + "\n");

  const std::vector<Fig4Row> Rows = runFig4(Config);
  auto Row = [&Rows](StrategyKind Kind) -> const Fig4Row & {
    return *std::find_if(Rows.begin(), Rows.end(), [Kind](const Fig4Row &R) {
      return R.Run.Kind == Kind;
    });
  };
  for (const Fig4Row &R : Rows) {
    std::string Key = std::string(strategyName(R.Run.Kind)) + ".";
    const char *Groups[] = {"fast", "medium", "slow"};
    for (size_t G = 0; G < 3; ++G)
      Ctx.setWork(Key + "load_" + Groups[G] + "_pct_x1000",
                  scaled(R.Run.JobLoadPercent[G], 1000));
    Ctx.setWork(Key + "jobs", R.Agg.Jobs);
    Ctx.setWork(Key + "committed", R.Agg.Committed);
    Ctx.setWork(Key + "switched", R.Agg.Switched);
    Ctx.setWork(Key + "reallocated", R.Agg.Reallocated);
    Ctx.setWork(Key + "ttl_sum", static_cast<uint64_t>(R.Agg.TtlSum));
    Ctx.setWork(Key + "ttl_samples", R.Agg.TtlSamples);
    Ctx.setWork(Key + "dev_run_ratio_sum_x1e6",
                scaled(R.Agg.StartDeviationRatioSum, 1e6));
  }

  // Fig. 4b pairs MS1, S2 and S3 over the jobs all three committed.
  const StrategyKind Paired[] = {StrategyKind::MS1, StrategyKind::S2,
                                 StrategyKind::S3};
  std::map<unsigned, unsigned> CommittedBy;
  for (StrategyKind Kind : Paired)
    for (const VoJobStats &St : Row(Kind).Run.Jobs)
      CommittedBy[St.JobId] += St.Committed;
  uint64_t PairedJobs = 0;
  for (const auto &[JobId, Count] : CommittedBy)
    PairedJobs += Count == 3;
  Ctx.setWork("paired_jobs", PairedJobs);
  std::map<StrategyKind, PairedSums> Sums;
  for (StrategyKind Kind : Paired) {
    PairedSums &S = Sums[Kind];
    for (const VoJobStats &St : Row(Kind).Run.Jobs) {
      if (CommittedBy[St.JobId] != 3)
        continue;
      S.Cf += static_cast<uint64_t>(St.Cf);
      S.Econ += St.Cost;
      S.Completion += static_cast<uint64_t>(St.Completion - St.Arrival);
    }
    std::string Key = std::string(strategyName(Kind)) + ".";
    Ctx.setWork(Key + "paired_cf_sum", S.Cf);
    Ctx.setWork(Key + "paired_econ_cost_x100", scaled(S.Econ, 100));
    Ctx.setWork(Key + "paired_completion_sum", S.Completion);
  }

  auto SlowShare = [&Row](StrategyKind Kind) {
    const double *L = Row(Kind).Run.JobLoadPercent;
    double Total = L[0] + L[1] + L[2];
    return Total > 0 ? L[2] / Total : 0.0;
  };
  Ctx.check("fig4a: S1's load is the most slow-node-heavy, S3's the least, "
            "S2 in between",
            SlowShare(StrategyKind::S1) > SlowShare(StrategyKind::S2) &&
                SlowShare(StrategyKind::S2) > SlowShare(StrategyKind::S3));

  const PairedSums &Ms1 = Sums[StrategyKind::MS1];
  const PairedSums &S2 = Sums[StrategyKind::S2];
  const PairedSums &S3 = Sums[StrategyKind::S3];
  Ctx.check("fig4b: S3 has the lowest relative completion cost (CF)",
            S3.Cf < S2.Cf && S3.Cf < Ms1.Cf);
  Ctx.setWork("claim_fig4b_s3_slowest", S3.Completion >= S2.Completion &&
                                            S3.Completion >= Ms1.Completion);
  Ctx.setWork("claim_fig4b_ms1_slower_than_s2",
              Ms1.Completion > S2.Completion);

  const VoAggregates &AggMs1 = Row(StrategyKind::MS1).Agg;
  const VoAggregates &AggS2 = Row(StrategyKind::S2).Agg;
  const VoAggregates &AggS3 = Row(StrategyKind::S3).Agg;
  Ctx.check("fig4c: S3's strategies live the longest",
            AggS3.MeanTtl > AggS2.MeanTtl && AggS3.MeanTtl > AggMs1.MeanTtl);
  Ctx.check("fig4c: MS1's reduced coverage yields the largest start-time "
            "deviation",
            AggMs1.MeanStartDeviationRatio > AggS2.MeanStartDeviationRatio &&
                AggMs1.MeanStartDeviationRatio >
                    AggS3.MeanStartDeviationRatio);
  Ctx.setWork("claim_fig4c_s2_least_deviation",
              AggS2.MeanStartDeviationRatio < AggS3.MeanStartDeviationRatio &&
                  AggS2.MeanStartDeviationRatio <
                      AggMs1.MeanStartDeviationRatio);
}

//===-- tests/test_experiment.cpp - Experiment harness tests --------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "metrics/Experiment.h"

#include <gtest/gtest.h>

using namespace cws;

TEST(PreloadGrid, ReachesTargetFractions) {
  Prng Rng(5);
  Grid Env = Grid::makeRandom(GridConfig{}, Rng);
  size_t Placed = preloadGrid(Env, 100, 0.4, 0.6, 2, 8, Rng);
  EXPECT_GT(Placed, 0u);
  for (const auto &N : Env.nodes()) {
    double U = N.timeline().utilization(0, 100);
    EXPECT_GE(U, 0.3); // Target is at least 0.4 minus granularity slop.
    EXPECT_LT(U, 0.95);
  }
}

TEST(PreloadGrid, ZeroRangeLeavesGridEmpty) {
  Prng Rng(6);
  Grid Env = Grid::makeRandom(GridConfig{}, Rng);
  preloadGrid(Env, 100, 0.0, 0.0, 2, 8, Rng);
  for (const auto &N : Env.nodes())
    EXPECT_TRUE(N.timeline().intervals().empty());
}

TEST(Fig3, TinyRunProducesRows) {
  Fig3Config Config;
  Config.JobCount = 40;
  std::vector<Fig3Row> Rows = runFig3(Config);
  ASSERT_EQ(Rows.size(), 3u);
  EXPECT_EQ(Rows[0].Kind, StrategyKind::S1);
  EXPECT_EQ(Rows[1].Kind, StrategyKind::S2);
  EXPECT_EQ(Rows[2].Kind, StrategyKind::S3);
  for (const auto &R : Rows) {
    EXPECT_EQ(R.Jobs, 40u);
    EXPECT_GE(R.admissiblePercent(), 0.0);
    EXPECT_LE(R.admissiblePercent(), 100.0);
    EXPECT_GT(R.MeanVariants, 0.0);
    EXPECT_GE(R.MeanVariants, R.MeanFeasibleVariants);
  }
}

TEST(Fig3, CollisionSplitsAreConsistent) {
  Fig3Config Config;
  Config.JobCount = 60;
  std::vector<Fig3Row> Rows = runFig3(Config);
  for (const auto &R : Rows) {
    if (R.IntraCost.total() > 0) {
      EXPECT_GE(R.IntraCost.fastPercent(), 0.0);
      EXPECT_LE(R.IntraCost.fastPercent(), 100.0);
      EXPECT_NEAR(R.IntraCost.fastPercent() + R.IntraCost.slowPercent(),
                  100.0, 1e-9);
    }
  }
}

TEST(Fig3, IsDeterministic) {
  Fig3Config Config;
  Config.JobCount = 30;
  auto A = runFig3(Config);
  auto B = runFig3(Config);
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Admissible, B[I].Admissible);
    EXPECT_EQ(A[I].IntraCost.Fast, B[I].IntraCost.Fast);
    EXPECT_EQ(A[I].IntraCost.Slow, B[I].IntraCost.Slow);
  }
}

TEST(Fig3, SeedChangesOutcome) {
  Fig3Config A;
  A.JobCount = 30;
  Fig3Config B = A;
  B.Seed = A.Seed + 1;
  EXPECT_NE(runFig3(A)[0].Admissible, runFig3(B)[0].Admissible);
}

TEST(Fig4, TinyRunProducesRows) {
  Fig4Config Config;
  Config.Vo.JobCount = 20;
  std::vector<Fig4Row> Rows = runFig4(Config);
  ASSERT_EQ(Rows.size(), 4u);
  for (const auto &R : Rows) {
    EXPECT_EQ(R.Agg.Jobs, 20u);
    for (double Load : R.Run.JobLoadPercent)
      EXPECT_GE(Load, 0.0);
  }
}

TEST(Fig4, DefaultVoConfigIsLooserThanFig3) {
  VoConfig Vo = makeFig4VoConfig();
  EXPECT_GT(Vo.Workload.DeadlineSlack, WorkloadConfig{}.DeadlineSlack);
}

TEST(Fig4, AggregatesAreConsistent) {
  Fig4Config Config;
  Config.Vo.JobCount = 20;
  for (const auto &R : runFig4(Config)) {
    EXPECT_LE(R.Agg.CommittedPercent, R.Agg.AdmissiblePercent + 1e-9);
    if (R.Agg.Committed > 0) {
      EXPECT_GT(R.Agg.MeanCost, 0.0);
      EXPECT_GT(R.Agg.MeanCf, 0.0);
      EXPECT_GT(R.Agg.MeanRunTicks, 0.0);
      EXPECT_GE(R.Agg.MeanResponseTicks, R.Agg.MeanRunTicks);
    }
  }
}

TEST(SummarizeVo, EmptyRun) {
  VoRunResult Run;
  VoAggregates A = summarizeVo(Run);
  EXPECT_EQ(A.Jobs, 0u);
  EXPECT_EQ(A.Committed, 0u);
  EXPECT_EQ(A.MeanCost, 0.0);
}

TEST(SummarizeVo, CountsCategories) {
  VoRunResult Run;
  VoJobStats Committed;
  Committed.Admissible = true;
  Committed.Committed = true;
  Committed.Arrival = 0;
  Committed.ActualStart = 10;
  Committed.Completion = 30;
  Committed.ForecastStart = 8;
  Committed.Cost = 50.0;
  Committed.Cf = 12;
  Committed.Ttl = 25;
  Committed.TtlClosed = true;
  VoJobStats Inadmissible;
  Inadmissible.TtlClosed = true;
  VoJobStats Shifted;
  Shifted.Admissible = true;
  Shifted.Committed = true;
  Shifted.ShiftRecovered = true;
  Shifted.Switched = true;
  Shifted.CommitShift = 4;
  Shifted.Arrival = 5;
  Shifted.ForecastStart = 6;
  Shifted.ActualStart = 10;
  Shifted.Completion = 18;
  Shifted.Cost = 20.5;
  Shifted.Cf = 7;
  VoJobStats Reallocated;
  Reallocated.Admissible = true;
  Reallocated.Committed = true;
  Reallocated.Switched = true;
  Reallocated.Reallocated = true;
  Reallocated.Arrival = 2;
  Reallocated.ForecastStart = 12;
  Reallocated.ActualStart = 12;
  Reallocated.Completion = 22;
  Reallocated.Cost = 30.0;
  Reallocated.Cf = 9;
  Reallocated.Ttl = 5;
  Reallocated.TtlClosed = true;
  // Killed at once: a zero run time counts as one tick in the ratio.
  VoJobStats Killed;
  Killed.Admissible = true;
  Killed.Committed = true;
  Killed.ExecutionKilled = true;
  Killed.Arrival = 3;
  Killed.ForecastStart = 15;
  Killed.ActualStart = 14;
  Killed.Completion = 14;
  Killed.Cost = 10.0;
  Killed.Cf = 3;
  VoJobStats Expired;
  Expired.Admissible = true;
  Expired.Rejected = true;
  Expired.Ttl = 7;
  Expired.TtlClosed = true;
  Run.Jobs = {Committed, Inadmissible, Shifted, Reallocated, Killed, Expired};
  VoAggregates A = summarizeVo(Run);
  EXPECT_EQ(A.Jobs, 6u);
  EXPECT_EQ(A.Committed, 4u);
  EXPECT_EQ(A.Admissible, 5u);
  EXPECT_EQ(A.Switched, 2u);
  EXPECT_EQ(A.Reallocated, 1u);
  EXPECT_EQ(A.ShiftRecovered, 1u);
  EXPECT_EQ(A.TtlSum, 37);
  EXPECT_EQ(A.TtlSamples, 3u);
  EXPECT_EQ(A.CfSum, 31);
  EXPECT_DOUBLE_EQ(A.CostSum, 110.5);
  EXPECT_DOUBLE_EQ(A.StartDeviationRatioSum, 0.1 + 0.5 + 0.0 + 1.0);

  auto Pct = [&A](size_t N) { return 100.0 * N / static_cast<double>(A.Jobs); };
  EXPECT_EQ(A.AdmissiblePercent, Pct(A.Admissible));
  EXPECT_EQ(A.CommittedPercent, Pct(A.Committed));
  EXPECT_EQ(A.RejectedPercent, Pct(1));
  EXPECT_EQ(A.SwitchedPercent, Pct(A.Switched));
  EXPECT_EQ(A.ReallocatedPercent, Pct(A.Reallocated));
  EXPECT_EQ(A.ShiftRecoveredPercent, Pct(A.ShiftRecovered));
  auto N = static_cast<double>(A.Committed);
  EXPECT_EQ(A.MeanTtl, static_cast<double>(A.TtlSum) /
                           static_cast<double>(A.TtlSamples));
  EXPECT_EQ(A.MeanCf, static_cast<double>(A.CfSum) / N);
  EXPECT_EQ(A.MeanCost, A.CostSum / N);
  EXPECT_EQ(A.MeanStartDeviationRatio, A.StartDeviationRatioSum / N);
  EXPECT_DOUBLE_EQ(A.MeanCf, 7.75);
  EXPECT_DOUBLE_EQ(A.MeanCost, 27.625);
  EXPECT_DOUBLE_EQ(A.MeanRunTicks, (20.0 + 8.0 + 10.0 + 0.0) / 4);
  EXPECT_DOUBLE_EQ(A.MeanStartDeviation, (2.0 + 4.0 + 0.0 + 1.0) / 4);
  EXPECT_DOUBLE_EQ(A.MeanCommitShift, 4.0);
  EXPECT_DOUBLE_EQ(A.ExecutionKilledPercent, 25.0);
}

//===-- tests/test_shapes.cpp - Figure shape regression tests -------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reproduction claims of EXPERIMENTS.md as regression tests: small
/// fixed-seed versions of the figure experiments whose *shapes*
/// (orderings) must keep holding as the library evolves. These run the
/// same deterministic pipelines as the benches at reduced scale.
///
//===----------------------------------------------------------------------===//

#include "batch/Cluster.h"
#include "metrics/Experiment.h"

#include <gtest/gtest.h>

using namespace cws;

namespace {

/// One shared small Fig. 3 run (deterministic; computed once).
const std::vector<Fig3Row> &fig3Rows() {
  static const std::vector<Fig3Row> Rows = [] {
    Fig3Config Config;
    Config.JobCount = 500;
    return runFig3(Config);
  }();
  return Rows;
}

/// One shared small Fig. 4 run.
const std::vector<Fig4Row> &fig4Rows() {
  static const std::vector<Fig4Row> Rows = [] {
    Fig4Config Config;
    Config.Vo.JobCount = 150;
    Config.Kinds = {StrategyKind::S1, StrategyKind::S2, StrategyKind::S3,
                    StrategyKind::MS1};
    return runFig4(Config);
  }();
  return Rows;
}

const Fig4Row &fig4Row(StrategyKind Kind) {
  for (const auto &R : fig4Rows())
    if (R.Run.Kind == Kind)
      return R;
  ADD_FAILURE() << "missing fig4 row";
  return fig4Rows().front();
}

} // namespace

TEST(Fig3Shape, AdmissibilityIsPartial) {
  // Fig. 3a: nothing close to 0% or 100% — the application level
  // schedules against already-loaded resources.
  for (const auto &R : fig3Rows()) {
    EXPECT_GT(R.admissiblePercent(), 10.0) << strategyName(R.Kind);
    EXPECT_LT(R.admissiblePercent(), 70.0) << strategyName(R.Kind);
  }
}

TEST(Fig3Shape, AdmissibilityOrderS1S2S3) {
  const auto &Rows = fig3Rows();
  ASSERT_EQ(Rows.size(), 3u);
  EXPECT_GE(Rows[0].admissiblePercent(), Rows[1].admissiblePercent() - 1.0);
  EXPECT_GT(Rows[1].admissiblePercent(), Rows[2].admissiblePercent());
}

TEST(Fig3Shape, CollisionFastShareGrowsS1S2S3) {
  const auto &Rows = fig3Rows();
  ASSERT_EQ(Rows.size(), 3u);
  EXPECT_LT(Rows[0].IntraCost.fastPercent(),
            Rows[1].IntraCost.fastPercent() + 1.0);
  EXPECT_LT(Rows[1].IntraCost.fastPercent(),
            Rows[2].IntraCost.fastPercent() + 1.0);
  // Everyone collides somewhere.
  for (const auto &R : Rows)
    EXPECT_GT(R.IntraCost.total(), 0u);
}

TEST(Fig4Shape, S3IsCheapestUnderCf) {
  EXPECT_LT(fig4Row(StrategyKind::S3).Agg.MeanCf,
            fig4Row(StrategyKind::S2).Agg.MeanCf);
  EXPECT_LT(fig4Row(StrategyKind::S3).Agg.MeanCf,
            fig4Row(StrategyKind::MS1).Agg.MeanCf);
}

TEST(Fig4Shape, S3IsLeastSlowNodeBound) {
  auto SlowShare = [](const Fig4Row &R) {
    const double *L = R.Run.JobLoadPercent;
    double Total = L[0] + L[1] + L[2];
    return Total > 0 ? L[2] / Total : 0.0;
  };
  EXPECT_LT(SlowShare(fig4Row(StrategyKind::S3)),
            SlowShare(fig4Row(StrategyKind::S1)));
  EXPECT_LT(SlowShare(fig4Row(StrategyKind::S3)),
            SlowShare(fig4Row(StrategyKind::S2)));
}

TEST(Fig4Shape, TtlOrderS3S2Ms1) {
  EXPECT_GE(fig4Row(StrategyKind::S3).Agg.MeanTtl,
            fig4Row(StrategyKind::S2).Agg.MeanTtl - 0.5);
  EXPECT_GT(fig4Row(StrategyKind::S2).Agg.MeanTtl,
            fig4Row(StrategyKind::MS1).Agg.MeanTtl);
}

TEST(Fig4Shape, Ms1HasTheWorstStartDeviation) {
  double Ms1 = fig4Row(StrategyKind::MS1).Agg.MeanStartDeviationRatio;
  EXPECT_GT(Ms1, fig4Row(StrategyKind::S2).Agg.MeanStartDeviationRatio);
  EXPECT_GT(Ms1, fig4Row(StrategyKind::S3).Agg.MeanStartDeviationRatio);
}

TEST(Fig4Shape, Ms1RecoversAndReallocatesMost) {
  double Ms1 = fig4Row(StrategyKind::MS1).Agg.ShiftRecoveredPercent +
               fig4Row(StrategyKind::MS1).Agg.ReallocatedPercent;
  double S2 = fig4Row(StrategyKind::S2).Agg.ShiftRecoveredPercent +
              fig4Row(StrategyKind::S2).Agg.ReallocatedPercent;
  EXPECT_GT(Ms1, S2);
}

TEST(Sec5Shape, BackfillingReducesWaiting) {
  BatchWorkloadConfig W;
  W.JobCount = 600;
  W.NodesHi = 8;
  auto Trace = makeBatchTrace(W, 2009);
  ClusterConfig None;
  None.NodeCount = 16;
  ClusterConfig Easy = None;
  Easy.Backfill = BackfillMode::Easy;
  double WaitNone =
      summarizeCluster(Trace, runCluster(None, Trace), 16).MeanWait;
  double WaitEasy =
      summarizeCluster(Trace, runCluster(Easy, Trace), 16).MeanWait;
  EXPECT_LT(WaitEasy, WaitNone);
}

TEST(Sec5Shape, ReservationsIncreaseWaiting) {
  BatchWorkloadConfig W;
  W.JobCount = 400;
  W.NodesHi = 8;
  auto Trace = makeBatchTrace(W, 2009);
  ClusterConfig Config;
  Config.NodeCount = 16;
  std::vector<AdvanceReservation> Resv;
  for (Tick T = 100; T < Trace.back().Arrival; T += 300)
    Resv.push_back({T, T + 120, 6});
  double Plain =
      summarizeCluster(Trace, runCluster(Config, Trace), 16).MeanWait;
  double Loaded =
      summarizeCluster(Trace, runCluster(Config, Trace, Resv), 16).MeanWait;
  EXPECT_GT(Loaded, Plain);
}

//===-- tests/test_strategy.cpp - Strategy generation tests ---------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "core/Strategy.h"
#include "flow/BackgroundLoad.h"
#include "flow/Metascheduler.h"
#include "job/Generator.h"
#include "job/Job.h"
#include "metrics/Export.h"
#include "obs/Metrics.h"
#include "obs/Provenance.h"
#include "resource/Network.h"
#include "sim/Simulator.h"
#include "support/Prng.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

using namespace cws;

namespace {

Strategy buildFig2(StrategyKind Kind) {
  StrategyConfig Config;
  Config.Kind = Kind;
  return Strategy::build(makeFig2Job(), Grid::makeFig2(), Network{}, Config,
                         42);
}

/// A random grid from \p Seed carrying the background load placed by
/// \p Until and none of the compound jobs: the shallow, read-only
/// history strategies are built against in a VO.
Grid loadedSnapshot(uint64_t Seed, Tick Until) {
  Prng Root(Seed);
  Grid Env = Grid::makeRandom(GridConfig{}, Root);
  Simulator Sim;
  BackgroundLoad Background(Env, Sim, BackgroundConfig{}, Root.fork());
  Background.start(Until);
  Sim.run(Until);
  return Env;
}

/// Everything a build decides, as text: the variant summary, then each
/// variant's placements and collision records.
std::string strategyText(const Strategy &S) {
  std::string Text = strategyCsv(S);
  char Buf[160];
  for (const ScheduleVariant &V : S.variants()) {
    Text += distributionCsv(S.scheduledJob(), V.Result.Dist);
    for (const CollisionRecord &C : V.Result.Collisions) {
      std::snprintf(Buf, sizeof(Buf), "collision,%u,%u,%llu,%lld,%lld,%s\n",
                    C.TaskId, C.NodeId,
                    static_cast<unsigned long long>(C.BlockingOwner),
                    static_cast<long long>(C.WantedStart),
                    static_cast<long long>(C.ActualStart),
                    collisionResolutionName(C.Resolution));
      Text += Buf;
    }
  }
  return Text;
}

} // namespace

TEST(Strategy, NamesAndPolicies) {
  EXPECT_STREQ(strategyName(StrategyKind::S1), "S1");
  EXPECT_STREQ(strategyName(StrategyKind::MS1), "MS1");
  EXPECT_EQ(strategyDataPolicy(StrategyKind::S1),
            DataPolicyKind::ActiveReplication);
  EXPECT_EQ(strategyDataPolicy(StrategyKind::S2),
            DataPolicyKind::RemoteAccess);
  EXPECT_EQ(strategyDataPolicy(StrategyKind::S3),
            DataPolicyKind::StaticStorage);
  EXPECT_EQ(strategyDataPolicy(StrategyKind::MS1),
            DataPolicyKind::ActiveReplication);
  EXPECT_TRUE(strategyBestWorstOnly(StrategyKind::MS1));
  EXPECT_FALSE(strategyBestWorstOnly(StrategyKind::S1));
}

TEST(Strategy, Fig2S1IsAdmissibleWithAlternatives) {
  Strategy S = buildFig2(StrategyKind::S1);
  EXPECT_TRUE(S.admissible());
  // The paper's Fig. 2b shows at least three alternative distributions.
  EXPECT_GE(S.feasibleCount(), 2u);
  EXPECT_EQ(S.levels().size(), 4u);
}

TEST(Strategy, VariantsScheduleAllTasks) {
  Strategy S = buildFig2(StrategyKind::S1);
  for (const auto &V : S.variants()) {
    if (!V.feasible())
      continue;
    expectValidDistribution(S.scheduledJob(), V.Result.Dist);
    EXPECT_LE(V.Result.Dist.makespan(), 20);
  }
}

TEST(Strategy, CheapestVariantIsUniqueMinimum) {
  // The Fig. 2b shape: one distribution is strictly cheapest (CF2 = 37
  // versus CF1 = CF3 = 41 in the paper's units).
  Strategy S = buildFig2(StrategyKind::S1);
  const ScheduleVariant *Best = S.bestByCost();
  ASSERT_NE(Best, nullptr);
  for (const auto &V : S.variants()) {
    if (!V.feasible() || &V == Best)
      continue;
    EXPECT_GE(V.Result.Dist.economicCost(),
              Best->Result.Dist.economicCost());
  }
}

TEST(Strategy, BestByTimeMinimizesMakespan) {
  Strategy S = buildFig2(StrategyKind::S1);
  const ScheduleVariant *Fastest = S.bestByTime();
  ASSERT_NE(Fastest, nullptr);
  for (const auto &V : S.variants())
    if (V.feasible())
      EXPECT_GE(V.Result.Dist.makespan(), Fastest->Result.Dist.makespan());
}

TEST(Strategy, Ms1CoversOnlyBestAndWorstLevels) {
  Strategy S = buildFig2(StrategyKind::MS1);
  ASSERT_EQ(S.levels().size(), 4u);
  for (const auto &V : S.variants())
    EXPECT_TRUE(V.Level == 0 || V.Level == 3) << "level " << V.Level;
}

TEST(Strategy, Ms1HasNoMoreVariantsThanS1) {
  Strategy S1 = buildFig2(StrategyKind::S1);
  Strategy MS1 = buildFig2(StrategyKind::MS1);
  EXPECT_LE(MS1.variants().size(), S1.variants().size());
}

TEST(Strategy, S3SchedulesCoarseJob) {
  Strategy S = buildFig2(StrategyKind::S3);
  EXPECT_LT(S.scheduledJob().taskCount(), makeFig2Job().taskCount());
  EXPECT_EQ(S.scheduledJob().totalRefTicks(),
            makeFig2Job().totalRefTicks());
}

TEST(Strategy, FineGrainKindsScheduleOriginalJob) {
  for (StrategyKind Kind :
       {StrategyKind::S1, StrategyKind::S2, StrategyKind::MS1}) {
    Strategy S = buildFig2(Kind);
    EXPECT_EQ(S.scheduledJob().taskCount(), 6u);
  }
}

TEST(Strategy, VariantsAreDeduplicated) {
  Strategy S = buildFig2(StrategyKind::S1);
  for (size_t I = 0; I < S.variants().size(); ++I)
    for (size_t K = I + 1; K < S.variants().size(); ++K) {
      const Distribution &A = S.variants()[I].Result.Dist;
      const Distribution &B = S.variants()[K].Result.Dist;
      if (A.size() != B.size() || A.empty())
        continue;
      bool Same = true;
      for (const auto &P : A.placements()) {
        const Placement *Q = B.find(P.TaskId);
        if (!Q || Q->NodeId != P.NodeId || Q->Start != P.Start ||
            Q->End != P.End)
          Same = false;
      }
      EXPECT_FALSE(Same && S.variants()[I].feasible() ==
                               S.variants()[K].feasible())
          << "variants " << I << " and " << K << " are identical";
    }
}

TEST(Strategy, BestFittingRespectsCurrentLoad) {
  Grid Env = Grid::makeFig2();
  StrategyConfig Config;
  Strategy S = Strategy::build(makeFig2Job(), Env, Network{}, Config, 42);
  const ScheduleVariant *Before = S.bestFitting(Env);
  ASSERT_NE(Before, nullptr);
  // Occupy exactly the cheapest variant's first placement slot.
  const Placement &P = Before->Result.Dist.placements().front();
  ASSERT_TRUE(Env.node(P.NodeId).timeline().reserve(P.Start, P.End, 7));
  const ScheduleVariant *After = S.bestFitting(Env);
  if (After)
    EXPECT_NE(After, Before);
}

TEST(Strategy, BestFittingIgnoresOwnReservations) {
  Grid Env = Grid::makeFig2();
  StrategyConfig Config;
  Strategy S = Strategy::build(makeFig2Job(), Env, Network{}, Config, 42);
  const ScheduleVariant *Best = S.bestFitting(Env);
  ASSERT_NE(Best, nullptr);
  ASSERT_TRUE(Best->Result.Dist.commit(Env, /*Owner=*/77));
  EXPECT_EQ(S.bestFitting(Env, /*Ignore=*/77), Best);
  EXPECT_NE(S.bestFitting(Env), Best);
}

TEST(Strategy, InadmissibleWhenDeadlineImpossible) {
  Job J = makeFig2Job();
  J.setDeadline(4);
  StrategyConfig Config;
  Strategy S = Strategy::build(J, Grid::makeFig2(), Network{}, Config, 42);
  EXPECT_FALSE(S.admissible());
  EXPECT_EQ(S.bestByCost(), nullptr);
  EXPECT_EQ(S.bestByTime(), nullptr);
}

TEST(Strategy, CollectsCollisions) {
  Strategy S = buildFig2(StrategyKind::S1);
  // The Fig. 2 job is known to produce at least one collision (P4/P5
  // competing for a node) across the variant set.
  EXPECT_FALSE(S.allCollisions().empty());
}

TEST(Strategy, BuildLeavesEnvironmentUntouched) {
  Grid Env = Grid::makeFig2();
  StrategyConfig Config;
  Strategy::build(makeFig2Job(), Env, Network{}, Config, 42);
  for (const auto &N : Env.nodes())
    EXPECT_TRUE(N.timeline().intervals().empty());
}

TEST(Strategy, ParallelBuildMatchesSerialExactly) {
  // Variant generation fans out over a worker pool; the merged result
  // must be indistinguishable from the serial build at any lane count.
  Job J = makeFig2Job();
  Grid Env = Grid::makeFig2();
  Network Net;
  for (StrategyKind Kind : {StrategyKind::S1, StrategyKind::S2,
                            StrategyKind::S3, StrategyKind::MS1}) {
    StrategyConfig Serial;
    Serial.Kind = Kind;
    Serial.BuildThreads = 1;
    StrategyConfig Parallel = Serial;
    Parallel.BuildThreads = 4;
    Strategy A = Strategy::build(J, Env, Net, Serial, 42);
    Strategy B = Strategy::build(J, Env, Net, Parallel, 42);
    EXPECT_EQ(A.levels(), B.levels());
    ASSERT_EQ(A.variants().size(), B.variants().size())
        << strategyName(Kind);
    for (size_t I = 0; I < A.variants().size(); ++I) {
      const ScheduleVariant &VA = A.variants()[I];
      const ScheduleVariant &VB = B.variants()[I];
      EXPECT_EQ(VA.Level, VB.Level);
      EXPECT_EQ(VA.Bias, VB.Bias);
      EXPECT_EQ(VA.feasible(), VB.feasible());
      const Distribution &DA = VA.Result.Dist;
      const Distribution &DB = VB.Result.Dist;
      ASSERT_EQ(DA.size(), DB.size());
      for (const Placement &P : DA.placements()) {
        const Placement *Q = DB.find(P.TaskId);
        ASSERT_NE(Q, nullptr);
        EXPECT_EQ(Q->NodeId, P.NodeId);
        EXPECT_EQ(Q->Start, P.Start);
        EXPECT_EQ(Q->End, P.End);
        EXPECT_DOUBLE_EQ(Q->EconomicCost, P.EconomicCost);
      }
    }
  }
}

TEST(Strategy, JobIdAndKindAreRecorded) {
  Job J = makeFig2Job();
  J.setId(123);
  StrategyConfig Config;
  Config.Kind = StrategyKind::S2;
  Strategy S = Strategy::build(J, Grid::makeFig2(), Network{}, Config, 42, 9);
  EXPECT_EQ(S.jobId(), 123u);
  EXPECT_EQ(S.kind(), StrategyKind::S2);
  EXPECT_EQ(S.builtAt(), 9);
}

TEST(Strategy, PinnedDigestOnALoadedSnapshot) {
  // The chain DP's byte-identity oracle: every strategy type at four
  // deadline slacks, from infeasible to loose, against a loaded grid,
  // plus capped fronts and a restricted domain. A change that is meant
  // to leave every schedule as it is must leave this constant as it is.
  constexpr Tick Now = 1000;
  const Grid Env = loadedSnapshot(/*Seed=*/7, Now);
  const Network Net;
  obs::Counter &Evictions =
      obs::Registry::global().counter("cws_chain_front_evictions_total");
  std::string Text;
  size_t Builds = 0;
  size_t Admissible = 0;
  size_t Collisions = 0;
  auto Build = [&](const Job &J, const StrategyConfig &Config) {
    Strategy S = Strategy::build(J, Env, Net, Config,
                                 Metascheduler::ownerOf(J.id()), Now);
    ++Builds;
    Admissible += S.admissible();
    Collisions += S.allCollisions().size();
    Text += strategyText(S);
  };

  constexpr size_t Jobs = 50;
  for (double Slack : {1.2, 1.35, 1.6, 2.0}) {
    WorkloadConfig WC;
    WC.DeadlineSlack = Slack;
    JobGenerator Gen(WC, /*Seed=*/2009);
    for (size_t I = 0; I < Jobs; ++I) {
      Job J = Gen.next(Now);
      for (StrategyKind Kind : {StrategyKind::S1, StrategyKind::S2,
                                StrategyKind::S3, StrategyKind::MS1}) {
        StrategyConfig Config;
        Config.Kind = Kind;
        Build(J, Config);
      }
    }
  }

  WorkloadConfig WC;
  WC.DeadlineSlack = 1.6;
  JobGenerator Gen(WC, /*Seed=*/2010);
  uint64_t Evicted0 = Evictions.value();
  for (size_t I = 0; I < Jobs; ++I) {
    Job J = Gen.next(Now);
    // Fronts capped at three labels: cap evictions shape the DP.
    StrategyConfig Capped;
    Capped.MaxFrontSize = 3;
    Build(J, Capped);
    // A domain of every third node.
    StrategyConfig Domain;
    for (unsigned Id = 0; Id < Env.size(); Id += 3)
      Domain.AllowedNodes.push_back(Id);
    Build(J, Domain);
  }
  EXPECT_GT(Evictions.value(), Evicted0);

  // The workload reaches both outcomes and real contention.
  EXPECT_GT(Admissible, 0u);
  EXPECT_LT(Admissible, Builds);
  EXPECT_GT(Collisions, 0u);
  EXPECT_EQ(obs::fnv1a64(Text), 0xbccae10c9239de26ULL)
      << Text.size() << " bytes";
}

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
#include "obs/Profiler.h"
#include "obs/Provenance.h"
#include "resource/Network.h"
#include "sim/Simulator.h"
#include "support/Prng.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <thread>

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
Grid loadedSnapshot(uint64_t Seed, Tick Until,
                    const GridConfig &Config = GridConfig{}) {
  Prng Root(Seed);
  Grid Env = Grid::makeRandom(Config, Root);
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

/// The first way in which two variant lists differ — level, bias,
/// feasibility, a placement (cost included), a collision record or a
/// critical work — or "" when they are identical.
std::string firstDifference(const std::vector<ScheduleVariant> &A,
                            const std::vector<ScheduleVariant> &B) {
  if (A.size() != B.size())
    return "variant count " + std::to_string(A.size()) + " vs " +
           std::to_string(B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    const ScheduleVariant &VA = A[I];
    const ScheduleVariant &VB = B[I];
    std::string At = "variant " + std::to_string(I) + ": ";
    if (VA.Level != VB.Level || VA.Bias != VB.Bias ||
        VA.feasible() != VB.feasible())
      return At + "level, bias or feasibility";
    const std::vector<Placement> &PA = VA.Result.Dist.placements();
    const std::vector<Placement> &PB = VB.Result.Dist.placements();
    if (PA.size() != PB.size())
      return At + "placement count";
    for (size_t K = 0; K < PA.size(); ++K)
      if (PA[K].TaskId != PB[K].TaskId || PA[K].NodeId != PB[K].NodeId ||
          PA[K].Start != PB[K].Start || PA[K].End != PB[K].End ||
          PA[K].EconomicCost != PB[K].EconomicCost)
        return At + "placement " + std::to_string(K);
    const std::vector<CollisionRecord> &CA = VA.Result.Collisions;
    const std::vector<CollisionRecord> &CB = VB.Result.Collisions;
    if (CA.size() != CB.size())
      return At + "collision count";
    for (size_t K = 0; K < CA.size(); ++K)
      if (CA[K].TaskId != CB[K].TaskId || CA[K].NodeId != CB[K].NodeId ||
          CA[K].BlockingOwner != CB[K].BlockingOwner ||
          CA[K].WantedStart != CB[K].WantedStart ||
          CA[K].ActualStart != CB[K].ActualStart ||
          CA[K].Resolution != CB[K].Resolution)
        return At + "collision " + std::to_string(K);
    const std::vector<CriticalWork> &WA = VA.Result.Phases;
    const std::vector<CriticalWork> &WB = VB.Result.Phases;
    if (WA.size() != WB.size())
      return At + "phase count";
    for (size_t K = 0; K < WA.size(); ++K)
      if (WA[K].TaskIds != WB[K].TaskIds ||
          WA[K].RefLength != WB[K].RefLength)
        return At + "phase " + std::to_string(K);
  }
  return "";
}

/// \p S rebuilt one (level, bias) variant at a time: `scheduleJob` for
/// every covered pair under the configuration Strategy::build uses, then
/// the same merge (a variant equal in feasibility and placements to a
/// kept one is dropped).
std::vector<ScheduleVariant> perVariantReference(const Strategy &S,
                                                 const Grid &Env,
                                                 const Network &Net,
                                                 const StrategyConfig &Config,
                                                 OwnerId Owner, Tick Now) {
  std::vector<size_t> Covered;
  for (size_t L = 0; L < S.levels().size(); ++L)
    if (!strategyBestWorstOnly(Config.Kind) || L == 0 ||
        L + 1 == S.levels().size())
      Covered.push_back(L);
  std::vector<ScheduleVariant> Out;
  for (size_t Level : Covered)
    for (OptimizationBias Bias :
         {OptimizationBias::Cost, OptimizationBias::Time}) {
      SchedulerConfig SC;
      SC.DataKind = strategyDataPolicy(Config.Kind);
      SC.DataConfig = Config.DataConfig;
      SC.Costs = Config.Costs;
      for (const auto &N : Env.nodes())
        if ((Config.AllowedNodes.empty() ||
             std::count(Config.AllowedNodes.begin(), Config.AllowedNodes.end(),
                        N.id())) &&
            N.relPerf() <= S.levels()[Level] + 1e-9)
          SC.Alloc.CandidateNodes.push_back(N.id());
      if (SC.Alloc.CandidateNodes.empty())
        continue;
      SC.Alloc.Bias = Bias;
      SC.Alloc.NodeSwitchPenalty =
          Config.Kind == StrategyKind::S3 ? Config.CoarsePenalty : 0.0;
      SC.Alloc.MaxFrontSize = Config.MaxFrontSize;
      ScheduleVariant V{Level, S.levels()[Level], Bias,
                        scheduleJob(S.scheduledJob(), Env, Net, SC, Owner,
                                    Now)};
      auto SameSchedule = [&V](const ScheduleVariant &Kept) {
        const Distribution &A = Kept.Result.Dist;
        const Distribution &B = V.Result.Dist;
        if (Kept.feasible() != V.feasible() || A.size() != B.size())
          return false;
        for (const Placement &P : A.placements()) {
          const Placement *Q = B.find(P.TaskId);
          if (!Q || Q->NodeId != P.NodeId || Q->Start != P.Start ||
              Q->End != P.End)
            return false;
        }
        return true;
      };
      if (std::none_of(Out.begin(), Out.end(), SameSchedule))
        Out.push_back(std::move(V));
    }
  return Out;
}

/// What one Strategy::build computed, from the profiler: schedules built
/// (`strategy.build` variants_built), chain placements run (`chain.dp`
/// calls), DP reruns, labels kept and earliest-fit queries.
struct BuildWork {
  uint64_t VariantsBuilt = 0;
  uint64_t DpCalls = 0;
  uint64_t DpReruns = 0;
  uint64_t Labels = 0;
  uint64_t FitQueries = 0;
};

BuildWork profiledBuild(const Job &J, const Grid &Env,
                        const StrategyConfig &Config, Strategy &Out) {
  obs::Profiler &P = obs::Profiler::global();
  P.reset();
  P.enable();
  Out = Strategy::build(J, Env, Network{}, Config, 42);
  P.disable();
  BuildWork W;
  for (const obs::PhaseStats &Phase : P.snapshot()) {
    if (Phase.Name == "strategy.build")
      W.VariantsBuilt = *Phase.work("variants_built");
    if (Phase.Name == "chain.dp") {
      W.DpCalls = Phase.Count;
      W.DpReruns = *Phase.work("dp_reruns");
      W.Labels = *Phase.work("labels");
      W.FitQueries = *Phase.work("fit_queries");
    }
  }
  P.reset();
  return W;
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
  for (const auto &V : S.variants()) {
    if (V.feasible()) {
      EXPECT_GE(V.Result.Dist.makespan(), Fastest->Result.Dist.makespan());
    }
  }
}

TEST(Strategy, Ms1CoversOnlyBestAndWorstLevels) {
  Strategy S = buildFig2(StrategyKind::MS1);
  ASSERT_EQ(S.levels().size(), 4u);
  for (const auto &V : S.variants())
    EXPECT_TRUE(V.Level == 0 || V.Level == 3) << "level " << V.Level;

  // With two distinct perfs, best and worst are every level: MS1 covers
  // both and builds what S1 builds. The deadline fits only the fast
  // nodes, so the slow level's variant is no duplicate of the fast one.
  Grid Two;
  for (double Perf : {1.0, 0.5, 1.0, 0.5})
    Two.addNode(Perf);
  Job J = makeChainJob(10);
  StrategyConfig Config;
  Config.Kind = StrategyKind::MS1;
  Strategy Ms1 = Strategy::build(J, Two, Network{}, Config, 42);
  ASSERT_EQ(Ms1.levels().size(), 2u);
  std::set<size_t> Covered;
  for (const auto &V : Ms1.variants())
    Covered.insert(V.Level);
  EXPECT_EQ(Covered, (std::set<size_t>{0, 1}));
  Config.Kind = StrategyKind::S1;
  EXPECT_EQ(strategyText(Ms1),
            strategyText(Strategy::build(J, Two, Network{}, Config, 42)));
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
  if (After) {
    EXPECT_NE(After, Before);
  }
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

TEST(Strategy, BuildsAfterOtherBuildsOnTheThreadMatchAFreshThread) {
  // Each thread keeps its lanes' scratch grids and the chain DP's
  // buffers from one build to the next. A build that follows a build of
  // another job on a grid with another node count, either way, must
  // decide exactly as a build on a thread that never built: the same
  // variants, the same placements and the same collision records.
  constexpr Tick Now = 1000;
  const Grid EnvA = loadedSnapshot(/*Seed=*/7, Now);
  GridConfig Wide;
  Wide.MinNodes = Wide.MaxNodes = 40;
  const Grid EnvB = loadedSnapshot(/*Seed=*/11, Now, Wide);
  ASSERT_NE(EnvA.size(), EnvB.size());
  const Network Net;
  StrategyConfig Config;
  auto Build = [&](const Job &J, const Grid &Env) {
    return Strategy::build(J, Env, Net, Config,
                           Metascheduler::ownerOf(J.id()), Now);
  };

  WorkloadConfig WC;
  WC.DeadlineSlack = 1.35;
  JobGenerator Gen(WC, /*Seed=*/2009);
  size_t TimeVariants = 0, Collisions = 0;
  for (size_t I = 0; I < 12; ++I) {
    Job A = Gen.next(Now);
    Job B = Gen.next(Now);
    std::string First = strategyText(Build(A, EnvA));
    std::string Other = strategyText(Build(B, EnvB));
    Strategy Again = Build(A, EnvA);
    std::string Fresh, OtherFresh;
    std::thread([&] { Fresh = strategyText(Build(A, EnvA)); }).join();
    std::thread([&] { OtherFresh = strategyText(Build(B, EnvB)); }).join();
    EXPECT_EQ(strategyText(Again), Fresh) << "job " << I;
    EXPECT_EQ(First, Fresh) << "job " << I;
    EXPECT_EQ(Other, OtherFresh) << "job " << I;
    for (const ScheduleVariant &V : Again.variants())
      TimeVariants += V.Bias == OptimizationBias::Time;
    Collisions += Again.allCollisions().size();
  }
  // The builds reach forked lanes and contention.
  EXPECT_GT(TimeVariants, 0u);
  EXPECT_GT(Collisions, 0u);
}

TEST(Strategy, BuildMatchesPerVariantReference) {
  // Strategy::build shares chain placements between the Cost and Time
  // variants and skips levels; the result must equal building every
  // covered (level, bias) variant on its own and merging afterwards.
  // Inputs: the PinnedDigestOnALoadedSnapshot workload.
  constexpr Tick Now = 1000;
  const Grid Env = loadedSnapshot(/*Seed=*/7, Now);
  const Network Net;
  std::vector<std::pair<Job, StrategyConfig>> Builds;
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
        Builds.push_back({J, Config});
      }
    }
  }
  WorkloadConfig WC;
  WC.DeadlineSlack = 1.6;
  JobGenerator Gen(WC, /*Seed=*/2010);
  for (size_t I = 0; I < Jobs; ++I) {
    Job J = Gen.next(Now);
    StrategyConfig Capped;
    Capped.MaxFrontSize = 3;
    Builds.push_back({J, Capped});
    StrategyConfig Domain;
    for (unsigned Id = 0; Id < Env.size(); Id += 3)
      Domain.AllowedNodes.push_back(Id);
    Builds.push_back({J, Domain});
  }

  size_t Mismatches = 0;
  for (const auto &[J, Config] : Builds) {
    OwnerId Owner = Metascheduler::ownerOf(J.id());
    Strategy S = Strategy::build(J, Env, Net, Config, Owner, Now);
    std::string Diff = firstDifference(
        S.variants(), perVariantReference(S, Env, Net, Config, Owner, Now));
    if (!Diff.empty() && ++Mismatches <= 5)
      ADD_FAILURE() << strategyName(Config.Kind) << " job " << J.id() << ": "
                    << Diff;
  }
  EXPECT_EQ(Mismatches, 0u);
}

TEST(Strategy, PicksThatNeverDifferRunOneLanePerLevel) {
  // The fastest node of every level is also its cheapest, so the Cost
  // and the Time pick agree at every critical work: each level runs one
  // lane, and each of its critical works is placed once.
  Grid Env;
  Env.addNodePriced(1.0, 1.0);
  Env.addNodePriced(0.5, 4.0);
  Env.addNodePriced(0.25, 8.0);
  StrategyConfig Config;
  Strategy S;
  BuildWork W = profiledBuild(makeDiamondJob(100), Env, Config, S);
  ASSERT_EQ(S.levels().size(), 3u);
  ASSERT_EQ(S.variants().size(), 3u);
  uint64_t Phases = 0;
  for (const ScheduleVariant &V : S.variants()) {
    EXPECT_EQ(V.Bias, OptimizationBias::Cost);
    Phases += V.Result.Phases.size();
  }
  EXPECT_EQ(W.VariantsBuilt, 3u);
  EXPECT_EQ(W.DpCalls, Phases);
  EXPECT_EQ(firstDifference(S.variants(),
                            perVariantReference(S, Env, Network{}, Config,
                                                42, 0)),
            "");
}

TEST(Strategy, PicksThatDifferAtTheFirstWorkShareItsPass) {
  // One level; the cheap node is busy at first. Cost waits for it and
  // Time takes the expensive node, so the picks differ at the first
  // critical work (A-B-D of the diamond): two lanes, but that work's
  // forward pass runs once.
  Grid Env;
  Env.addNodePriced(1.0, 10.0);
  Env.addNodePriced(1.0, 1.0);
  ASSERT_TRUE(Env.node(1).timeline().reserve(0, 4, 9));
  StrategyConfig Config;
  Strategy S;
  BuildWork W = profiledBuild(makeDiamondJob(100), Env, Config, S);
  ASSERT_EQ(S.variants().size(), 2u);
  const ScheduleResult &Cost = S.variants()[0].Result;
  const ScheduleResult &Time = S.variants()[1].Result;
  EXPECT_EQ(S.variants()[1].Bias, OptimizationBias::Time);
  EXPECT_NE(Cost.Dist.find(0)->NodeId, Time.Dist.find(0)->NodeId);
  EXPECT_EQ(W.VariantsBuilt, 2u);
  EXPECT_EQ(W.DpCalls, Cost.Phases.size() + Time.Phases.size() - 1);
  EXPECT_EQ(firstDifference(S.variants(),
                            perVariantReference(S, Env, Network{}, Config,
                                                42, 0)),
            "");
}

TEST(Strategy, LevelsThatDifferOnlyByFullNodesAreBuiltOnce) {
  // The fastest node is reserved through the deadline, so levels 0 and
  // 1 differ only by a full node: level 1 is not built.
  Grid Env;
  Env.addNode(1.0);
  Env.addNode(0.5);
  Env.addNode(0.25);
  ASSERT_TRUE(Env.node(0).timeline().reserve(0, 1000, 9));
  StrategyConfig Config;
  Strategy S;
  BuildWork W = profiledBuild(makeDiamondJob(40), Env, Config, S);
  ASSERT_EQ(S.levels().size(), 3u);
  // Level 0 splits into two lanes; level 2 runs one.
  EXPECT_EQ(W.VariantsBuilt, 3u);
  for (const ScheduleVariant &V : S.variants())
    EXPECT_NE(V.Level, 1u);
  EXPECT_EQ(firstDifference(S.variants(),
                            perVariantReference(S, Env, Network{}, Config,
                                                42, 0)),
            "");
}

TEST(Strategy, FullNodesLeaveTheDpSearch) {
  // Node 1 is reserved through the deadline, so it is full. Level 0
  // (nodes 0-3) searches only nodes 0, 2 and 3, and level 1 (nodes 1-3)
  // only nodes 2 and 3: no earliest-fit query lands on node 1. The
  // counts are pinned. Searching every candidate keeps the same labels
  // but runs 69 queries, 11 of them first fits on node 1. At a chain's
  // last position a front keeps only its earliest-finish and cheapest
  // label, and skips the candidates that the fronts the pick reads
  // before it beat for both picks: full fronts keep 51 labels and run
  // 68 queries, and two-label fronts that skip no such candidate keep 50
  // labels and run 67 queries.
  Grid Env;
  Env.addNode(1.0);
  Env.addNode(0.5);
  Env.addNode(0.5);
  Env.addNode(0.25);
  ASSERT_TRUE(Env.node(1).timeline().reserve(0, 1000, 9));
  ASSERT_TRUE(Env.node(2).timeline().reserve(4, 9, 9));
  StrategyConfig Config;
  Strategy S;
  BuildWork W = profiledBuild(makeDiamondJob(40), Env, Config, S);
  EXPECT_EQ(W.VariantsBuilt, 5u);
  EXPECT_EQ(W.DpCalls, 10u);
  EXPECT_EQ(W.Labels, 40u);
  EXPECT_EQ(W.FitQueries, 58u);
  EXPECT_EQ(firstDifference(S.variants(),
                            perVariantReference(S, Env, Network{}, Config,
                                                42, 0)),
            "");
}

TEST(Strategy, NodeWithExactlyOneWindowForTheShortestTaskIsNotFull) {
  // The chain job's shortest task runs 2 ticks on the fastest node. A
  // window of exactly 2 ticks ending at the deadline keeps the node
  // open, so level 1 is built; a 1-tick window does not.
  Job J = makeChainJob(/*Deadline=*/40);
  for (Tick Window : {2, 1}) {
    Grid Env;
    Env.addNode(1.0);
    Env.addNode(0.5);
    Env.addNode(0.25);
    ASSERT_TRUE(Env.node(0).timeline().reserve(0, 40 - Window, 9));
    ASSERT_TRUE(Env.node(0).timeline().reserve(40, 1000, 9));
    StrategyConfig Config;
    Strategy S;
    BuildWork W = profiledBuild(J, Env, Config, S);
    // Levels 0 and 1 split into two lanes each; level 2 runs one.
    EXPECT_EQ(W.VariantsBuilt, Window == 2 ? 5u : 3u) << Window;
    EXPECT_EQ(firstDifference(S.variants(),
                              perVariantReference(S, Env, Network{}, Config,
                                                  42, 0)),
              "")
        << Window;
  }
}

TEST(Strategy, RerunAfterTheLanesSplitMatchesTheReference) {
  // A -> B -> C plus a direct A -> C edge the chain DP does not see. Both
  // picks move C off A's node, so both violate A -> C, but they differ:
  // the lanes split at the first pick, each reruns its own DP, and both
  // end on the same schedule, which the merge keeps once. Generated
  // jobs never reach the rerun path: their edges join adjacent layers,
  // so a chain has no non-adjacent edge.
  Grid Env;
  Env.addNodePriced(1.0, 10.0);
  Env.addNodePriced(1.0, 1.0);
  Env.addNodePriced(1.0, 1.0);
  ASSERT_TRUE(Env.node(1).timeline().reserve(4, 30, 9));
  ASSERT_TRUE(Env.node(2).timeline().reserve(0, 5, 9));
  Job J;
  unsigned A = J.addTask("A", 2, 20);
  unsigned B = J.addTask("B", 2, 20);
  unsigned C = J.addTask("C", 2, 20);
  J.addEdge(A, B, 10);
  J.addEdge(B, C, 0);
  J.addEdge(A, C, 11);
  J.setDeadline(100);
  StrategyConfig Config;
  Config.Kind = StrategyKind::S2;
  Strategy S;
  BuildWork W = profiledBuild(J, Env, Config, S);
  EXPECT_EQ(W.VariantsBuilt, 2u);
  EXPECT_EQ(W.DpCalls, 1u);
  EXPECT_EQ(W.DpReruns, 2u);
  ASSERT_EQ(S.variants().size(), 1u);
  EXPECT_GE(S.variants()[0].Result.Dist.find(C)->Start,
            S.variants()[0].Result.Dist.find(A)->End + 11);
  EXPECT_EQ(firstDifference(S.variants(),
                            perVariantReference(S, Env, Network{}, Config,
                                                42, 0)),
            "");
}

TEST(Strategy, SplitAfterASharedRerunKeepsItsReadinessBumps) {
  // A chain 0 -> 1 -> 2 -> 3 -> 4 with direct edges 0 -> 2 and 2 -> 4.
  // At level 0 the first pick violates a direct edge for both biases, so
  // the shared lane reruns with a readiness bump; only then do the
  // picks differ. Each lane must keep the bump: the Cost lane's
  // collision wants task 4 at the bumped tick, not at its plain ready
  // time.
  Grid Env;
  Env.addNodePriced(0.5, 7.0);
  Env.addNodePriced(1.0, 2.0);
  Env.addNodePriced(1.0, 2.0);
  ASSERT_TRUE(Env.node(0).timeline().reserve(12, 21, 9));
  ASSERT_TRUE(Env.node(1).timeline().reserve(9, 27, 9));
  ASSERT_TRUE(Env.node(2).timeline().reserve(13, 27, 9));
  Job J;
  for (Tick Ref : {2, 3, 2, 1, 2})
    J.addTask("t", Ref, 10.0 * static_cast<double>(Ref));
  J.addEdge(0, 1, 7);
  J.addEdge(1, 2, 0);
  J.addEdge(2, 3, 0);
  J.addEdge(3, 4, 9);
  J.addEdge(0, 2, 5);
  J.addEdge(2, 4, 7);
  J.setDeadline(94);
  StrategyConfig Config;
  Config.Kind = StrategyKind::S2;
  Strategy S;
  BuildWork W = profiledBuild(J, Env, Config, S);
  // Level 0: one shared placement with one rerun, then two lanes; level
  // 1: one lane.
  EXPECT_EQ(W.VariantsBuilt, 3u);
  EXPECT_EQ(W.DpCalls, 2u);
  EXPECT_EQ(W.DpReruns, 1u);
  ASSERT_EQ(S.variants().size(), 3u);
  const std::vector<CollisionRecord> &Cost = S.variants()[0].Result.Collisions;
  ASSERT_EQ(Cost.size(), 1u);
  EXPECT_EQ(Cost[0].TaskId, 4u);
  EXPECT_EQ(Cost[0].WantedStart, 14);
  EXPECT_EQ(firstDifference(S.variants(),
                            perVariantReference(S, Env, Network{}, Config,
                                                42, 0)),
            "");
}

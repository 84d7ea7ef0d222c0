//===-- tests/test_properties.cpp - Property-based invariant sweeps -------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Randomized sweeps over seeds asserting the invariants every part of
/// the scheduling pipeline must uphold regardless of configuration:
/// distributions are precedence-valid and overlap-free, deadlines are
/// honoured, costs are non-negative, and committed state is consistent.
///
//===----------------------------------------------------------------------===//

#include "core/Strategy.h"
#include "flow/VirtualOrganization.h"
#include "job/Coarsen.h"
#include "job/Generator.h"
#include "lang/Parser.h"
#include "metrics/Experiment.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace cws;

namespace {

struct Scenario {
  uint64_t Seed;
  StrategyKind Kind;
};

std::vector<Scenario> allScenarios() {
  std::vector<Scenario> S;
  for (uint64_t Seed : {1u, 2u, 3u, 5u, 8u, 13u})
    for (StrategyKind Kind : {StrategyKind::S1, StrategyKind::S2,
                              StrategyKind::S3, StrategyKind::MS1})
      S.push_back({Seed, Kind});
  return S;
}

} // namespace

class StrategySweep : public ::testing::TestWithParam<Scenario> {};

TEST_P(StrategySweep, VariantsUpholdAllInvariants) {
  auto [Seed, Kind] = GetParam();
  JobGenerator Gen(WorkloadConfig{}, Seed);
  Prng Rng(Seed ^ 0xabcdef);
  Network Net;
  for (int Round = 0; Round < 8; ++Round) {
    Job J = Gen.next(0);
    Grid Env = Grid::makeRandom(GridConfig{}, Rng);
    preloadGrid(Env, J.deadline(), 0.2, 0.5, 2, 8, Rng);
    StrategyConfig Config;
    Config.Kind = Kind;
    Strategy S = Strategy::build(J, Env, Net, Config, 42);
    const Job &Scheduled = S.scheduledJob();
    EXPECT_EQ(Scheduled.deadline(), J.deadline());
    for (const auto &V : S.variants()) {
      if (!V.feasible()) {
        // Infeasible variants must not be silently complete.
        EXPECT_FALSE(V.Result.Dist.covers(Scheduled) &&
                     V.Result.Dist.makespan() <= Scheduled.deadline());
        continue;
      }
      expectValidDistribution(Scheduled, V.Result.Dist);
      EXPECT_LE(V.Result.Dist.makespan(), Scheduled.deadline());
      EXPECT_GE(V.Result.Dist.startTime(), 0);
      EXPECT_GT(V.Result.Dist.economicCost(), 0.0);
      EXPECT_GT(V.Result.Dist.costFunction(Scheduled), 0);
      // Variants were built against the load: they must fit it.
      EXPECT_TRUE(V.Result.Dist.fitsGrid(Env));
      // Transfers from placed predecessors leave non-negative slack.
      for (const auto &E : Scheduled.edges()) {
        const Placement *Src = V.Result.Dist.find(E.Src);
        const Placement *Dst = V.Result.Dist.find(E.Dst);
        if (Src->NodeId == Dst->NodeId) {
          EXPECT_GE(Dst->Start, Src->End);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, StrategySweep,
                         ::testing::ValuesIn(allScenarios()));

class CoarsenSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoarsenSweep, CoarseningPreservesSemantics) {
  JobGenerator Gen(WorkloadConfig{}, GetParam());
  for (int Round = 0; Round < 15; ++Round) {
    Job J = Gen.next(0);
    for (unsigned Rounds : {0u, 1u, 2u}) {
      CoarsenConfig Config;
      Config.SiblingRounds = Rounds;
      CoarseJob C = coarsenJob(J, Config);
      EXPECT_TRUE(C.Coarse.isAcyclic());
      EXPECT_EQ(C.Coarse.totalRefTicks(), J.totalRefTicks());
      EXPECT_LE(C.Coarse.taskCount(), J.taskCount());
      EXPECT_GE(C.Coarse.taskCount(), 1u);
      // Edges never grow.
      EXPECT_LE(C.Coarse.edgeCount(), J.edgeCount());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoarsenSweep,
                         ::testing::Values(101u, 102u, 103u, 104u));

class VoSweep : public ::testing::TestWithParam<Scenario> {};

TEST_P(VoSweep, RunInvariants) {
  auto [Seed, Kind] = GetParam();
  VoConfig Config = makeFig4VoConfig();
  Config.JobCount = 30;
  VoRunResult R = runVirtualOrganization(Config, Kind, Seed);
  ASSERT_EQ(R.Jobs.size(), 30u);
  for (const auto &St : R.Jobs) {
    // Category logic.
    if (St.Committed) {
      EXPECT_TRUE(St.Admissible);
      EXPECT_FALSE(St.Rejected);
      EXPECT_GE(St.ActualStart, St.Arrival);
      EXPECT_GT(St.Completion, St.ActualStart);
      EXPECT_LE(St.Completion, St.Deadline);
      EXPECT_GT(St.Cost, 0.0);
      EXPECT_GT(St.Cf, 0);
    }
    if (St.Rejected) {
      EXPECT_FALSE(St.Committed);
    }
    if (!St.Admissible) {
      EXPECT_FALSE(St.Committed);
      EXPECT_TRUE(St.TtlClosed);
      EXPECT_EQ(St.Ttl, 0);
    }
    if (St.TtlClosed && St.Admissible && St.Committed) {
      EXPECT_LE(St.Ttl, St.Completion - St.Arrival);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, VoSweep,
                         ::testing::ValuesIn(std::vector<Scenario>{
                             {21, StrategyKind::S1},
                             {22, StrategyKind::S2},
                             {23, StrategyKind::S3},
                             {24, StrategyKind::MS1},
                         }));

class SchedulerStress : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SchedulerStress, RepairNeverProducesInvalidSchedules) {
  JobGenerator Gen(WorkloadConfig{}, GetParam());
  Prng Rng(GetParam() * 31 + 7);
  Network Net;
  for (int Round = 0; Round < 15; ++Round) {
    Job J = Gen.next(0);
    Grid Env = Grid::makeRandom(GridConfig{}, Rng);
    preloadGrid(Env, J.deadline(), 0.3, 0.7, 2, 8, Rng);
    for (OptimizationBias Bias :
         {OptimizationBias::Cost, OptimizationBias::Time}) {
      SchedulerConfig Config;
      Config.Alloc.Bias = Bias;
      ScheduleResult R = scheduleJob(J, Env, Net, Config, 42);
      if (!R.Feasible)
        continue;
      expectValidDistribution(J, R.Dist);
      EXPECT_LE(R.Dist.makespan(), J.deadline());
      // Placements never overlap the pre-existing background load.
      for (const auto &P : R.Dist.placements())
        EXPECT_TRUE(
            Env.node(P.NodeId).timeline().isFree(P.Start, P.End));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerStress,
                         ::testing::Values(301u, 302u, 303u, 304u, 305u,
                                           306u));

class LangFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LangFuzz, ParserNeverCrashesOnGarbage) {
  Prng Rng(GetParam());
  const char Alphabet[] =
      "abcdefghijklmnopqrstuvwxyz0123456789 \t\n\"#->._-+;,@$";
  for (int Round = 0; Round < 50; ++Round) {
    std::string Text;
    size_t Len = Rng.index(200);
    for (size_t I = 0; I < Len; ++I)
      Text += Alphabet[Rng.index(sizeof(Alphabet) - 1)];
    ParseResult R = parseJobDescription(Text);
    // Whatever came out must be internally consistent.
    if (R.ok()) {
      EXPECT_TRUE(R.TheJob.isAcyclic());
    }
    for (const auto &D : R.Errors) {
      EXPECT_GE(D.Line, 1u);
      EXPECT_GE(D.Col, 1u);
      EXPECT_FALSE(D.Message.empty());
    }
  }
}

TEST_P(LangFuzz, KeywordSoupParses) {
  // Statement keywords in random order with random attributes: the
  // parser must terminate and report sane diagnostics.
  Prng Rng(GetParam() * 31);
  const char *Words[] = {"job",  "task", "edge",     "node", "ref",
                         "vol",  "perf", "transfer", "->",   "deadline",
                         "t1",   "t2",   "7",        "0.5",  "-3"};
  for (int Round = 0; Round < 50; ++Round) {
    std::string Text;
    size_t Len = Rng.index(60);
    for (size_t I = 0; I < Len; ++I) {
      Text += Words[Rng.index(std::size(Words))];
      Text += Rng.bernoulli(0.2) ? "\n" : " ";
    }
    ParseResult R = parseJobDescription(Text);
    if (R.ok()) {
      EXPECT_TRUE(R.TheJob.isAcyclic());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LangFuzz,
                         ::testing::Values(11u, 12u, 13u, 14u));

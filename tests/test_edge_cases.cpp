//===-- tests/test_edge_cases.cpp - Cross-module boundary cases -----------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Boundary conditions that individual module suites do not cover:
/// degenerate jobs and grids flowing through the whole pipeline, exact
/// deadline fits, zero transfers, single-node environments and extreme
/// configurations.
///
//===----------------------------------------------------------------------===//

#include "batch/Cluster.h"
#include "batch/Gang.h"
#include "core/Strategy.h"
#include "flow/Execution.h"
#include "job/Coarsen.h"
#include "job/Generator.h"
#include "lang/Parser.h"
#include "resource/Network.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace cws;

TEST(EdgeCases, SingleTaskSingleNodePipeline) {
  Job J;
  J.addTask("only", 4, 40);
  J.setDeadline(100);
  Grid Env;
  Env.addNode(0.5);
  Network Net;
  Strategy S = Strategy::build(J, Env, Net, StrategyConfig{}, 42);
  ASSERT_TRUE(S.admissible());
  const ScheduleVariant *Best = S.bestByCost();
  EXPECT_EQ(Best->Result.Dist.find(0)->End, 8); // ceil(4 / 0.5)
}

TEST(EdgeCases, DeadlineExactlyAtMakespanIsFeasible) {
  Job J;
  J.addTask("t", 4, 40);
  Grid Env;
  Env.addNode(1.0);
  Network Net;
  J.setDeadline(4); // Exactly the execution time.
  ScheduleResult R = scheduleJob(J, Env, Net, SchedulerConfig{}, 1);
  EXPECT_TRUE(R.Feasible);
  J.setDeadline(3);
  EXPECT_FALSE(scheduleJob(J, Env, Net, SchedulerConfig{}, 1).Feasible);
}

TEST(EdgeCases, ZeroTransferEdgesStillOrderTasks) {
  Job J;
  unsigned A = J.addTask("a", 2, 20);
  unsigned B = J.addTask("b", 2, 20);
  J.addEdge(A, B, 0);
  J.setDeadline(100);
  Grid Env = makeSmallGrid();
  Network Net;
  ScheduleResult R = scheduleJob(J, Env, Net, SchedulerConfig{}, 1);
  ASSERT_TRUE(R.Feasible);
  EXPECT_GE(R.Dist.find(B)->Start, R.Dist.find(A)->End);
  EXPECT_EQ(J.criticalPathRefTicks(), 4);
}

TEST(EdgeCases, WideFanOutSchedulesEveryBranch) {
  Job J;
  unsigned Root = J.addTask("root", 1, 10);
  for (int I = 0; I < 12; ++I)
    J.addEdge(Root, J.addTask("leaf" + std::to_string(I), 2, 20), 1);
  J.setDeadline(300);
  Grid Env = makeSmallGrid();
  Network Net;
  ScheduleResult R = scheduleJob(J, Env, Net, SchedulerConfig{}, 1);
  ASSERT_TRUE(R.Feasible);
  expectValidDistribution(J, R.Dist);
  // 13 phases: the root chain plus one per remaining leaf.
  EXPECT_EQ(R.Phases.size(), 12u);
}

TEST(EdgeCases, RepeatedNodePerfsCollapseToDistinctDescendingLevels) {
  Network Net;
  Job J = makeChainJob(200);
  // A homogeneous grid has one level.
  Grid Homogeneous;
  for (int I = 0; I < 4; ++I)
    Homogeneous.addNode(0.5);
  Strategy S = Strategy::build(J, Homogeneous, Net, StrategyConfig{}, 42);
  EXPECT_EQ(S.levels().size(), 1u);
  EXPECT_TRUE(S.admissible());
  // Repeats collapse whatever the node order; the fastest level is first.
  Grid Mixed;
  for (double Perf : {0.5, 1.0, 0.5, 0.33})
    Mixed.addNode(Perf);
  Strategy M = Strategy::build(J, Mixed, Net, StrategyConfig{}, 42);
  EXPECT_EQ(M.levels(), (std::vector<double>{1.0, 0.5, 0.33}));
}

TEST(EdgeCases, CoarsenedSingleChainExecutes) {
  Job J = makeChainJob(200);
  CoarsenConfig CC;
  CC.MaxMergedRef = 0;
  Job Coarse = coarsenJob(J, CC).Coarse;
  ASSERT_EQ(Coarse.taskCount(), 1u);
  Grid Env = makeSmallGrid();
  Network Net;
  ScheduleResult R = scheduleJob(Coarse, Env, Net, SchedulerConfig{}, 1);
  ASSERT_TRUE(R.Feasible);
  ASSERT_TRUE(R.Dist.commit(Env, 1));
  Prng Rng(5);
  ExecutionConfig EC;
  EC.FactorLo = EC.FactorHi = 1.0;
  ExecutionResult E = executeDistribution(Coarse, R.Dist, Env, Rng, EC);
  EXPECT_TRUE(E.Succeeded);
}

TEST(EdgeCases, TimelineAdjacentReservationsAreDense) {
  Timeline T;
  for (Tick I = 0; I < 50; ++I)
    ASSERT_TRUE(T.reserve(I * 2, I * 2 + 2, 1 + (I % 3)));
  EXPECT_EQ(T.busyTicks(0, 100), 100);
  EXPECT_EQ(T.earliestFit(0, 1), 100);
}

TEST(EdgeCases, MinimalWorkloadConfigGenerates) {
  WorkloadConfig W;
  W.MinTasks = 2;
  W.MaxTasks = 2;
  W.MaxWidth = 1; // Pure chains.
  JobGenerator Gen(W, 3);
  for (int I = 0; I < 10; ++I) {
    Job J = Gen.next(0);
    EXPECT_EQ(J.taskCount(), 2u);
    EXPECT_EQ(J.sources().size(), 1u);
    EXPECT_EQ(J.sinks().size(), 1u);
  }
}

TEST(EdgeCases, TwoLevelQuantizationKeepsExtremes) {
  Grid Env;
  Env.addNode(1.0);
  Env.addNode(0.7);
  Env.addNode(0.5);
  Env.addNode(0.33);
  Network Net;
  StrategyConfig Config;
  Config.MaxLevels = 2;
  Strategy S = Strategy::build(makeChainJob(300), Env, Net, Config, 42);
  ASSERT_EQ(S.levels().size(), 2u);
  EXPECT_DOUBLE_EQ(S.levels()[0], 1.0);
  EXPECT_DOUBLE_EQ(S.levels()[1], 0.33);
}

TEST(EdgeCases, DescriptionWithOnlyNodesIsUsableAsEnvironment) {
  ParseResult R = parseJobDescription("node perf 1.0\nnode perf 0.5");
  ASSERT_TRUE(R.ok());
  EXPECT_TRUE(R.HasEnv);
  EXPECT_FALSE(R.HasJob);
  EXPECT_EQ(R.TheJob.taskCount(), 0u);
}

TEST(EdgeCases, LargeVolumesDoNotOverflowCf) {
  Distribution D;
  D.add({0, 0, 0, 1, 0.0});
  Job J;
  J.addTask("huge", 1, 1e15);
  EXPECT_EQ(D.costFunction(J), static_cast<int64_t>(1e15));
}

TEST(EdgeCases, NetworkLatencyOnlyTransfer) {
  NetworkConfig Config;
  Config.Latency = 5;
  Network Net(Config);
  // Zero-volume transfer between distinct nodes still pays latency.
  EXPECT_EQ(Net.transferTicks(0, 0, 1), 5);
  EXPECT_EQ(Net.transferTicks(0, 1, 1), 0);
}

TEST(EdgeCases, StrategyOnFullyLoadedGridIsInadmissibleNotCrashing) {
  Grid Env = makeSmallGrid();
  for (auto &N : Env.nodes())
    N.timeline().reserve(0, 100000, 9);
  Network Net;
  Job J = makeChainJob(50);
  Strategy S = Strategy::build(J, Env, Net, StrategyConfig{}, 42);
  EXPECT_FALSE(S.admissible());
  EXPECT_EQ(S.bestFitting(Env), nullptr);
}

TEST(EdgeCases, GangWithQuantumLargerThanJobs) {
  GangConfig Config;
  Config.NodeCount = 4;
  Config.Quantum = 100;
  auto Out = runGang(Config, {{0, 0, 2, 5, 5}, {1, 3, 2, 5, 5}});
  EXPECT_EQ(Out[0].Finish, 5);
  EXPECT_TRUE(Out[1].Started);
}

TEST(EdgeCases, ClusterSingleNodeSerializesEverything) {
  ClusterConfig Config;
  Config.NodeCount = 1;
  std::vector<BatchJob> Jobs{{0, 0, 1, 5, 5}, {1, 0, 1, 5, 5},
                             {2, 0, 1, 5, 5}};
  auto Out = runCluster(Config, Jobs);
  EXPECT_EQ(Out[0].Start, 0);
  EXPECT_EQ(Out[1].Start, 5);
  EXPECT_EQ(Out[2].Start, 10);
}

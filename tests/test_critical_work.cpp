//===-- tests/test_critical_work.cpp - Critical work extraction tests -----===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "core/CriticalWork.h"
#include "job/Job.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <set>

using namespace cws;

namespace {

std::vector<std::string> chainNames(const Job &J, const CriticalWork &W) {
  std::vector<std::string> Names;
  for (unsigned T : W.TaskIds)
    Names.push_back(J.task(T).Name);
  return Names;
}

} // namespace

TEST(CriticalWork, Fig2FullChainsMatchPaper) {
  // Section 3: "there are four critical works 12, 11, 10, and 9 time
  // units long (including data transfer time)".
  Job J = makeFig2Job();
  std::vector<CriticalWork> Chains = allFullChains(J);
  ASSERT_EQ(Chains.size(), 4u);
  EXPECT_EQ(Chains[0].RefLength, 12);
  EXPECT_EQ(Chains[1].RefLength, 11);
  EXPECT_EQ(Chains[2].RefLength, 10);
  EXPECT_EQ(Chains[3].RefLength, 9);
  EXPECT_EQ(chainNames(J, Chains[0]),
            (std::vector<std::string>{"P1", "P2", "P4", "P6"}));
  EXPECT_EQ(chainNames(J, Chains[1]),
            (std::vector<std::string>{"P1", "P2", "P5", "P6"}));
  EXPECT_EQ(chainNames(J, Chains[2]),
            (std::vector<std::string>{"P1", "P3", "P4", "P6"}));
  EXPECT_EQ(chainNames(J, Chains[3]),
            (std::vector<std::string>{"P1", "P3", "P5", "P6"}));
}

TEST(CriticalWork, FindPicksLongestUnassignedChain) {
  Job J = makeFig2Job();
  std::vector<bool> Assigned(6, false);
  CriticalWork W = findCriticalWork(J, J.topoOrder(), Assigned);
  EXPECT_EQ(W.RefLength, 12);
  EXPECT_EQ(chainNames(J, W),
            (std::vector<std::string>{"P1", "P2", "P4", "P6"}));
}

TEST(CriticalWork, FindSkipsAssignedTasks) {
  Job J = makeFig2Job();
  std::vector<bool> Assigned(6, false);
  // Assign P1, P2, P4, P6 (ids 0, 1, 3, 5).
  Assigned[0] = Assigned[1] = Assigned[3] = Assigned[5] = true;
  CriticalWork W = findCriticalWork(J, J.topoOrder(), Assigned);
  // Remaining: P3 -> P5 (via D6), length 1 + 1 + 1 = 3.
  EXPECT_EQ(W.RefLength, 3);
  EXPECT_EQ(chainNames(J, W), (std::vector<std::string>{"P3", "P5"}));
}

TEST(CriticalWork, FindOnFullyAssignedJobIsEmpty) {
  Job J = makeFig2Job();
  std::vector<bool> Assigned(6, true);
  EXPECT_TRUE(findCriticalWork(J, J.topoOrder(), Assigned).TaskIds.empty());
}

TEST(CriticalWork, PhasesPartitionTasks) {
  Job J = makeFig2Job();
  std::vector<CriticalWork> Phases = criticalWorkPhases(J);
  ASSERT_EQ(Phases.size(), 2u);
  std::set<unsigned> Seen;
  size_t Total = 0;
  for (const auto &P : Phases) {
    Total += P.TaskIds.size();
    Seen.insert(P.TaskIds.begin(), P.TaskIds.end());
  }
  EXPECT_EQ(Total, 6u);
  EXPECT_EQ(Seen.size(), 6u);
}

TEST(CriticalWork, PhasesAreLengthOrdered) {
  Job J = makeFig2Job();
  std::vector<CriticalWork> Phases = criticalWorkPhases(J);
  for (size_t I = 1; I < Phases.size(); ++I)
    EXPECT_GE(Phases[I - 1].RefLength, Phases[I].RefLength);
}

TEST(CriticalWork, ChainIsConnectedPath) {
  Job J = makeDiamondJob();
  for (const auto &W : criticalWorkPhases(J))
    for (size_t I = 1; I < W.TaskIds.size(); ++I) {
      bool Connected = false;
      for (size_t EdgeIdx : J.inEdges(W.TaskIds[I]))
        if (J.edge(EdgeIdx).Src == W.TaskIds[I - 1])
          Connected = true;
      EXPECT_TRUE(Connected);
    }
}

TEST(CriticalWork, IsolatedTasksBecomeSingletonWorks) {
  Job J;
  J.addTask("a", 5, 50);
  J.addTask("b", 3, 30);
  std::vector<CriticalWork> Phases = criticalWorkPhases(J);
  ASSERT_EQ(Phases.size(), 2u);
  EXPECT_EQ(Phases[0].RefLength, 5);
  EXPECT_EQ(Phases[1].RefLength, 3);
}

TEST(CriticalWork, AllFullChainsRespectsCap) {
  Job J = makeFig2Job();
  EXPECT_EQ(allFullChains(J, 2).size(), 2u);
}

TEST(CriticalWork, DiamondChains) {
  Job J = makeDiamondJob();
  std::vector<CriticalWork> Chains = allFullChains(J);
  ASSERT_EQ(Chains.size(), 2u);
  EXPECT_EQ(Chains[0].RefLength, 9); // A-B-D
  EXPECT_EQ(Chains[1].RefLength, 7); // A-C-D
}

//===-- tests/test_grid.cpp - Node and Grid unit tests --------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "resource/Grid.h"
#include "support/Prng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

using namespace cws;

TEST(PerfGroup, ClassifiesPaperBands) {
  EXPECT_EQ(classifyPerf(1.0), PerfGroup::Fast);
  EXPECT_EQ(classifyPerf(0.66), PerfGroup::Fast);
  EXPECT_EQ(classifyPerf(0.5), PerfGroup::Medium);
  EXPECT_EQ(classifyPerf(0.35), PerfGroup::Medium);
  EXPECT_EQ(classifyPerf(0.33), PerfGroup::Slow);
  EXPECT_EQ(classifyPerf(0.1), PerfGroup::Slow);
}

TEST(PerfGroup, Names) {
  EXPECT_STREQ(perfGroupName(PerfGroup::Fast), "fast");
  EXPECT_STREQ(perfGroupName(PerfGroup::Medium), "medium");
  EXPECT_STREQ(perfGroupName(PerfGroup::Slow), "slow");
}

TEST(ProcessorNode, ExecTicksReproducesFig2Table) {
  // The Fig. 2a estimation table: reference times {2, 3, 1, 2, 1, 2}
  // scale exactly by node types with perf 1, 1/2, 1/3, 1/4.
  Grid G = Grid::makeFig2();
  const Tick Refs[] = {2, 3, 1, 2, 1, 2};
  const Tick Expected[4][6] = {
      {2, 3, 1, 2, 1, 2},
      {4, 6, 2, 4, 2, 4},
      {6, 9, 3, 6, 3, 6},
      {8, 12, 4, 8, 4, 8},
  };
  for (unsigned NodeType = 0; NodeType < 4; ++NodeType)
    for (unsigned TaskIdx = 0; TaskIdx < 6; ++TaskIdx)
      EXPECT_EQ(G.node(NodeType).execTicks(Refs[TaskIdx]),
                Expected[NodeType][TaskIdx])
          << "node type " << NodeType + 1 << " task P" << TaskIdx + 1;
}

TEST(ProcessorNode, ExecTicksZeroWork) {
  Grid G = Grid::makeFig2();
  EXPECT_EQ(G.node(2).execTicks(0), 0);
}

TEST(ProcessorNode, ExecTicksRoundsUp) {
  Grid G;
  unsigned N = G.addNode(0.6);
  // 3 / 0.6 = 5.0 exactly; 4 / 0.6 = 6.67 -> 7.
  EXPECT_EQ(G.node(N).execTicks(3), 5);
  EXPECT_EQ(G.node(N).execTicks(4), 7);
}

TEST(Grid, PriceGrowsWithPerformance) {
  Grid G = Grid::makeFig2();
  EXPECT_GT(G.node(0).pricePerTick(), G.node(1).pricePerTick());
  EXPECT_GT(G.node(1).pricePerTick(), G.node(2).pricePerTick());
  EXPECT_GT(G.node(2).pricePerTick(), G.node(3).pricePerTick());
}

TEST(Grid, FasterNodeCostsMoreForSameWork) {
  // Total price of a fixed amount of work must grow with performance
  // (the paper's premium for powerful resources).
  Grid G = Grid::makeFig2();
  Tick Ref = 12;
  double FastCost = G.node(0).pricePerTick() *
                    static_cast<double>(G.node(0).execTicks(Ref));
  double SlowCost = G.node(3).pricePerTick() *
                    static_cast<double>(G.node(3).execTicks(Ref));
  EXPECT_GT(FastCost, SlowCost);
}

TEST(Grid, MakeRandomRespectsConfig) {
  GridConfig Config;
  Prng Rng(123);
  for (int I = 0; I < 20; ++I) {
    Grid G = Grid::makeRandom(Config, Rng);
    EXPECT_GE(G.size(), Config.MinNodes);
    EXPECT_LE(G.size(), Config.MaxNodes);
    bool HasFast = false, HasSlow = false;
    for (const auto &N : G.nodes()) {
      EXPECT_GT(N.relPerf(), 0.0);
      EXPECT_LE(N.relPerf(), Config.FastHi + 1e-9);
      if (N.group() == PerfGroup::Fast)
        HasFast = true;
      if (N.group() == PerfGroup::Slow)
        HasSlow = true;
    }
    EXPECT_TRUE(HasFast);
    EXPECT_TRUE(HasSlow);
  }
}

TEST(Grid, IdsByPerfIsSortedFastestFirst) {
  GridConfig Config;
  Prng Rng(5);
  Grid G = Grid::makeRandom(Config, Rng);
  std::vector<unsigned> Ids = G.idsByPerf();
  ASSERT_EQ(Ids.size(), G.size());
  for (size_t I = 1; I < Ids.size(); ++I)
    EXPECT_GE(G.node(Ids[I - 1]).relPerf(), G.node(Ids[I]).relPerf());
}

TEST(Grid, GroupQueries) {
  Grid G;
  G.addNode(0.9);
  G.addNode(0.5);
  G.addNode(0.33);
  G.addNode(0.33);
  EXPECT_EQ(G.idsInGroup(PerfGroup::Fast).size(), 1u);
  EXPECT_EQ(G.idsInGroup(PerfGroup::Medium).size(), 1u);
  EXPECT_EQ(G.idsInGroup(PerfGroup::Slow).size(), 2u);
}

TEST(Grid, GroupUtilization) {
  Grid G;
  unsigned Fast = G.addNode(0.9);
  G.addNode(0.9);
  G.node(Fast).timeline().reserve(0, 50, 1);
  EXPECT_DOUBLE_EQ(G.groupUtilization(PerfGroup::Fast, 0, 100), 0.25);
  EXPECT_DOUBLE_EQ(G.groupUtilization(PerfGroup::Slow, 0, 100), 0.0);
}

TEST(Grid, ReleaseOwnerAcrossNodes) {
  Grid G;
  G.addNode(1.0);
  G.addNode(0.5);
  G.node(0).timeline().reserve(0, 10, 42);
  G.node(1).timeline().reserve(5, 15, 42);
  G.node(1).timeline().reserve(20, 25, 7);
  G.releaseOwner(42);
  EXPECT_TRUE(G.node(0).timeline().isFree(0, 10));
  EXPECT_TRUE(G.node(1).timeline().isFree(5, 15));
  EXPECT_FALSE(G.node(1).timeline().isFree(20, 25));
}

TEST(Grid, ClearTimelines) {
  Grid G;
  G.addNode(1.0);
  G.node(0).timeline().reserve(0, 10, 1);
  G.clearTimelines();
  EXPECT_TRUE(G.node(0).timeline().isFree(0, 10));
}

TEST(Grid, CopyIsIndependent) {
  Grid G;
  G.addNode(1.0);
  Grid Copy = G;
  Copy.node(0).timeline().reserve(0, 10, 1);
  EXPECT_TRUE(G.node(0).timeline().isFree(0, 10));
  EXPECT_FALSE(Copy.node(0).timeline().isFree(0, 10));
}

namespace {

/// The reservations of \p Line that end after \p Horizon.
std::vector<Interval> liveIntervals(const Timeline &Line, Tick Horizon) {
  std::vector<Interval> Live;
  for (const Interval &I : Line.intervals())
    if (I.End > Horizon)
      Live.push_back(I);
  return Live;
}

/// True when \p Copy has \p Whole's nodes and exactly the reservations
/// of \p Whole that end after \p Horizon.
testing::AssertionResult isLiveCopyOf(const Grid &Copy, const Grid &Whole,
                                      Tick Horizon) {
  if (Copy.size() != Whole.size())
    return testing::AssertionFailure() << "node count " << Copy.size();
  for (unsigned Id = 0; Id < Whole.size(); ++Id) {
    const ProcessorNode &A = Copy.node(Id);
    const ProcessorNode &B = Whole.node(Id);
    if (A.id() != B.id() || A.relPerf() != B.relPerf() ||
        A.pricePerTick() != B.pricePerTick() || A.group() != B.group())
      return testing::AssertionFailure() << "node " << Id << " attributes";
    std::vector<Interval> Want = liveIntervals(B.timeline(), Horizon);
    const std::vector<Interval> &Got = A.timeline().intervals();
    if (Got.size() != Want.size())
      return testing::AssertionFailure()
             << "node " << Id << ": " << Got.size() << " reservations, want "
             << Want.size();
    for (size_t I = 0; I < Want.size(); ++I)
      if (Got[I].Begin != Want[I].Begin || Got[I].End != Want[I].End ||
          Got[I].Owner != Want[I].Owner)
        return testing::AssertionFailure()
               << "node " << Id << " reservation " << I;
  }
  return testing::AssertionSuccess();
}

} // namespace

TEST(Grid, LiveCopyAnswersLikeTheWholeGridFromTheHorizonOn) {
  // A scratch grid keeps only the reservations that end after its
  // horizon. Every query and update that starts at or after the horizon
  // must answer on it as on the whole grid, and the two must keep
  // agreeing on every reservation that ends after the horizon. One grid
  // is refilled in place across rounds of different node counts.
  Prng Rng(2024);
  Grid Refilled;
  size_t Queries = 0, Reserved = 0, Released = 0;
  for (int Round = 0; Round < 300; ++Round) {
    Grid Whole;
    auto Nodes = static_cast<unsigned>(Rng.uniformInt(1, 6));
    for (unsigned I = 0; I < Nodes; ++I)
      Whole.addNode(Rng.uniformReal(0.33, 1.0));
    Tick Last = 0;
    for (unsigned Id = 0; Id < Nodes; ++Id) {
      Tick T = Rng.uniformInt(0, 4);
      for (int64_t K = Rng.uniformInt(0, 30); K > 0; --K) {
        T += Rng.uniformInt(0, 5);
        Tick Len = Rng.uniformInt(1, 8);
        ASSERT_TRUE(Whole.node(Id).timeline().reserve(
            T, T + Len, static_cast<OwnerId>(Rng.uniformInt(1, 4))));
        T += Len;
      }
      Last = std::max(Last, T);
    }
    const Tick Horizon = Rng.uniformInt(0, Last + 4);
    Grid Live = Whole.liveCopy(Horizon);
    size_t Copied = Refilled.assignLive(Whole, Horizon);
    ASSERT_TRUE(isLiveCopyOf(Live, Whole, Horizon)) << "round " << Round;
    ASSERT_TRUE(isLiveCopyOf(Refilled, Whole, Horizon)) << "round " << Round;
    size_t LiveCount = 0;
    for (const ProcessorNode &N : Live.nodes())
      LiveCount += N.timeline().intervals().size();
    EXPECT_EQ(Copied, LiveCount);

    for (int Op = 0; Op < 120; ++Op) {
      auto Id = static_cast<unsigned>(Rng.index(Nodes));
      Timeline &W = Whole.node(Id).timeline();
      Timeline &L = Live.node(Id).timeline();
      Tick B = Horizon + Rng.uniformInt(0, Last - Horizon + 6);
      Tick Len = Rng.uniformInt(1, 10);
      Tick E = B + Len;
      auto Owner = static_cast<OwnerId>(Rng.uniformInt(1, 4));
      switch (Rng.index(7)) {
      case 0:
        EXPECT_EQ(L.earliestFit(B, Len), W.earliestFit(B, Len));
        break;
      case 1:
        EXPECT_EQ(L.isFree(B, E), W.isFree(B, E));
        break;
      case 2:
        EXPECT_EQ(L.isFreeFor(B, E, Owner), W.isFreeFor(B, E, Owner));
        break;
      case 3: {
        const Interval *A = L.firstOverlap(B, E);
        const Interval *Want = W.firstOverlap(B, E);
        ASSERT_EQ(A == nullptr, Want == nullptr);
        if (A) {
          EXPECT_EQ(A->Begin, Want->Begin);
          EXPECT_EQ(A->End, Want->End);
          EXPECT_EQ(A->Owner, Want->Owner);
        }
        break;
      }
      case 4:
        EXPECT_EQ(L.busyTicks(B, E), W.busyTicks(B, E));
        break;
      case 5: {
        bool Ok = W.reserve(B, E, Owner);
        EXPECT_EQ(L.reserve(B, E, Owner), Ok);
        Reserved += Ok;
        break;
      }
      case 6: {
        // Half the time an existing reservation that starts at or after
        // the horizon, so releases also succeed.
        std::vector<Interval> Starts;
        for (const Interval &I : W.intervals())
          if (I.Begin >= Horizon)
            Starts.push_back(I);
        if (!Starts.empty() && Rng.bernoulli(0.5)) {
          const Interval &I = Starts[Rng.index(Starts.size())];
          B = I.Begin;
          E = I.End;
          Owner = I.Owner;
        }
        bool Ok = W.release(B, E, Owner);
        EXPECT_EQ(L.release(B, E, Owner), Ok);
        Released += Ok;
        break;
      }
      }
      ++Queries;
    }
    ASSERT_TRUE(isLiveCopyOf(Live, Whole, Horizon)) << "round " << Round;
  }
  // The rounds reach every kind of answer.
  EXPECT_GT(Reserved, 0u);
  EXPECT_GT(Released, 0u);
  EXPECT_GT(Queries, 30000u);
}

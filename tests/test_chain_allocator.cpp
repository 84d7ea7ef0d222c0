//===-- tests/test_chain_allocator.cpp - DP chain allocator tests ---------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "core/ChainAllocator.h"
#include "job/Job.h"
#include "obs/Metrics.h"
#include "obs/Provenance.h"
#include "resource/Grid.h"
#include "resource/Network.h"
#include "support/Prng.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <string>

using namespace cws;

namespace {

struct AllocFixture {
  Grid G = makeSmallGrid(); // perfs 1.0, 0.8, 0.4, 0.33
  Network Net;
  DataPolicy Policy{DataPolicyKind::RemoteAccess, Net};
  CostModel Cost{G};
  AllocatorPolicy Params;
  Distribution Dist;
  std::vector<CollisionRecord> Collisions;

  AllocFixture() {
    for (const auto &N : G.nodes())
      Params.CandidateNodes.push_back(N.id());
  }

  bool allocate(const Job &J, const CriticalWork &W, Tick Release,
                Tick Deadline) {
    ChainAllocator A(J, G, Policy, Cost, Params);
    return A.allocate(W, Dist, Release, Deadline, /*Owner=*/42, Collisions);
  }
};

CriticalWork wholeChain(const Job &J) {
  CriticalWork W;
  for (unsigned T : J.topoOrder())
    W.TaskIds.push_back(T);
  W.RefLength = J.criticalPathRefTicks();
  return W;
}

/// One chain placement serving both biases, continued past a split the
/// way the scheduler continues it (each bias resumes on its own copy of
/// the state): per bias, whether the chain was placed, the distribution
/// and the collision log.
struct BothBiases {
  ChainOutcome Outcome = ChainOutcome::Failed;
  ChainSplit Split;
  std::array<bool, 2> Placed{};
  std::array<Distribution, 2> Dist;
  std::array<std::vector<CollisionRecord>, 2> Logs;
  /// The DP work of the placement and of both continuations.
  DpWork Work;
};

/// `allocateBoth` from a copy of \p Start, which may hold replicas.
BothBiases allocateBoth(const Job &J, const CriticalWork &W, const Grid &Env,
                        const DataPolicy &Start, const Distribution &Pinned,
                        const AllocatorPolicy &Params, Tick Release,
                        Tick Deadline) {
  constexpr OwnerId Owner = 42;
  BothBiases R;
  Grid G = Env;
  CostModel Cost(Env);
  DataPolicy Policy = Start;
  Distribution Dist = Pinned;
  std::array<std::vector<CollisionRecord>, 2> Logs;
  ChainAllocator A(J, G, Policy, Cost, Params);
  R.Outcome = A.allocate(W, Dist, Release, Deadline, Owner,
                         BiasLogs{&Logs[0], &Logs[1]}, R.Split);
  R.Work = A.work();
  for (size_t B = 0; B < 2; ++B) {
    if (R.Outcome != ChainOutcome::Split) {
      R.Placed[B] = R.Outcome == ChainOutcome::Placed;
      R.Dist[B] = Dist;
      R.Logs[B] = Logs[B];
      continue;
    }
    Grid GB = G;
    DataPolicy PB = Policy;
    R.Dist[B] = Dist;
    R.Logs[B] = Logs[B];
    ChainAllocator AB(J, GB, PB, Cost, Params);
    R.Placed[B] = AB.resume(W, R.Split, static_cast<OptimizationBias>(B),
                            R.Dist[B], Release, Deadline, Owner, R.Logs[B]);
    R.Work += AB.work();
  }
  return R;
}

BothBiases allocateBoth(const Job &J, const CriticalWork &W, const Grid &Env,
                        const Network &Net, DataPolicyKind Kind,
                        const Distribution &Pinned,
                        const AllocatorPolicy &Params, Tick Release,
                        Tick Deadline) {
  return allocateBoth(J, W, Env, DataPolicy(Kind, Net), Pinned, Params,
                      Release, Deadline);
}

/// Everything a placement serving both biases decided, as one line: the
/// outcome, the split attempt and readiness bumps, both split paths, and
/// per bias whether it placed, its distribution and its collision log.
std::string describe(const BothBiases &R) {
  std::string S = "o" + std::to_string(static_cast<int>(R.Outcome)) + " a" +
                  std::to_string(R.Split.Attempt) + " x";
  for (Tick T : R.Split.ExtraReady)
    S += "," + std::to_string(T);
  if (R.Outcome == ChainOutcome::Split)
    for (const std::vector<ChainStep> &Path : R.Split.Paths) {
      S += " p";
      for (const ChainStep &St : Path)
        S += "," + std::to_string(St.NodeId) + ":" + std::to_string(St.Start) +
             "-" + std::to_string(St.Finish);
    }
  for (size_t Bias = 0; Bias < 2; ++Bias) {
    S += " b" + std::to_string(R.Placed[Bias]);
    for (const Placement &P : R.Dist[Bias].placements()) {
      char Cost[32];
      std::snprintf(Cost, sizeof Cost, "%.17g", P.EconomicCost);
      S += " " + std::to_string(P.TaskId) + "@" + std::to_string(P.NodeId) +
           ":" + std::to_string(P.Start) + "-" + std::to_string(P.End) +
           "$" + Cost;
    }
    for (const CollisionRecord &C : R.Logs[Bias])
      S += " c" + std::to_string(C.TaskId) + "@" + std::to_string(C.NodeId) +
           "/" + std::to_string(C.BlockingOwner) + ":" +
           std::to_string(C.WantedStart) + ">" +
           std::to_string(C.ActualStart) + "r" +
           std::to_string(static_cast<int>(C.Resolution));
  }
  return S + "\n";
}

/// The first way in which two placements differ, or "".
std::string firstDifference(const BothBiases &A, const BothBiases &B) {
  if (A.Outcome != B.Outcome)
    return "outcome";
  if (A.Outcome == ChainOutcome::Split) {
    if (A.Split.Attempt != B.Split.Attempt ||
        A.Split.ExtraReady != B.Split.ExtraReady)
      return "split attempt";
    for (size_t Bias = 0; Bias < 2; ++Bias) {
      const std::vector<ChainStep> &PA = A.Split.Paths[Bias];
      const std::vector<ChainStep> &PB = B.Split.Paths[Bias];
      if (!std::equal(PA.begin(), PA.end(), PB.begin(), PB.end(),
                      [](const ChainStep &X, const ChainStep &Y) {
                        return X.NodeId == Y.NodeId && X.Start == Y.Start &&
                               X.Finish == Y.Finish;
                      }))
        return "split path " + std::to_string(Bias);
    }
  }
  for (size_t Bias = 0; Bias < 2; ++Bias) {
    std::string At = "bias " + std::to_string(Bias) + ": ";
    if (A.Placed[Bias] != B.Placed[Bias])
      return At + "placed";
    const std::vector<Placement> &PA = A.Dist[Bias].placements();
    const std::vector<Placement> &PB = B.Dist[Bias].placements();
    if (PA.size() != PB.size())
      return At + "placement count";
    for (size_t K = 0; K < PA.size(); ++K)
      if (PA[K].TaskId != PB[K].TaskId || PA[K].NodeId != PB[K].NodeId ||
          PA[K].Start != PB[K].Start || PA[K].End != PB[K].End ||
          PA[K].EconomicCost != PB[K].EconomicCost)
        return At + "placement " + std::to_string(K);
    const std::vector<CollisionRecord> &CA = A.Logs[Bias];
    const std::vector<CollisionRecord> &CB = B.Logs[Bias];
    if (CA.size() != CB.size())
      return At + "collision count";
    for (size_t K = 0; K < CA.size(); ++K)
      if (CA[K].TaskId != CB[K].TaskId || CA[K].NodeId != CB[K].NodeId ||
          CA[K].BlockingOwner != CB[K].BlockingOwner ||
          CA[K].WantedStart != CB[K].WantedStart ||
          CA[K].ActualStart != CB[K].ActualStart ||
          CA[K].Resolution != CB[K].Resolution)
        return At + "collision " + std::to_string(K);
  }
  return "";
}

} // namespace

TEST(ChainAllocator, SingleTaskCostBiasPicksCheapestNode) {
  AllocFixture F;
  Job J;
  J.addTask("t", 4, 40);
  J.setDeadline(100);
  CriticalWork W{{0}, 4};
  ASSERT_TRUE(F.allocate(J, W, 0, 100));
  const Placement *P = F.Dist.find(0);
  ASSERT_NE(P, nullptr);
  // Cheapest total = min over nodes of price * execTicks; with price
  // 10 * perf^2 that is the slowest node (id 3, perf 0.33).
  EXPECT_EQ(P->NodeId, 3u);
  EXPECT_EQ(P->Start, 0);
  EXPECT_EQ(P->End, 13); // ceil(4 / 0.33)
}

TEST(ChainAllocator, SingleTaskTimeBiasPicksFastestNode) {
  AllocFixture F;
  F.Params.Bias = OptimizationBias::Time;
  Job J;
  J.addTask("t", 4, 40);
  J.setDeadline(100);
  CriticalWork W{{0}, 4};
  ASSERT_TRUE(F.allocate(J, W, 0, 100));
  EXPECT_EQ(F.Dist.find(0)->NodeId, 0u);
  EXPECT_EQ(F.Dist.find(0)->End, 4);
}

TEST(ChainAllocator, DeadlineForcesFasterNode) {
  AllocFixture F;
  Job J;
  J.addTask("t", 4, 40);
  J.setDeadline(5);
  CriticalWork W{{0}, 4};
  ASSERT_TRUE(F.allocate(J, W, 0, 5));
  // Only nodes finishing by 5: node 0 (4 ticks) or node 1 (5 ticks);
  // cost bias picks the cheaper node 1.
  EXPECT_EQ(F.Dist.find(0)->NodeId, 1u);
}

TEST(ChainAllocator, InfeasibleDeadlineFails) {
  AllocFixture F;
  Job J;
  J.addTask("t", 4, 40);
  J.setDeadline(3);
  CriticalWork W{{0}, 4};
  EXPECT_FALSE(F.allocate(J, W, 0, 3));
  EXPECT_TRUE(F.Dist.empty());
}

TEST(ChainAllocator, ReleaseIsRespected) {
  AllocFixture F;
  Job J;
  J.addTask("t", 2, 20);
  J.setDeadline(100);
  CriticalWork W{{0}, 2};
  ASSERT_TRUE(F.allocate(J, W, 10, 100));
  EXPECT_GE(F.Dist.find(0)->Start, 10);
}

TEST(ChainAllocator, ChainRespectsTransfers) {
  AllocFixture F;
  Job J = makeChainJob(100);
  ASSERT_TRUE(F.allocate(J, wholeChain(J), 0, 100));
  expectValidDistribution(J, F.Dist);
  // Cross-node steps must leave at least the transfer gap.
  for (const auto &E : J.edges()) {
    const Placement *Src = F.Dist.find(E.Src);
    const Placement *Dst = F.Dist.find(E.Dst);
    if (Src->NodeId != Dst->NodeId) {
      EXPECT_GE(Dst->Start, Src->End + E.BaseTransfer);
    }
  }
}

TEST(ChainAllocator, OccupiedSlotShiftsTaskAndRecordsCollision) {
  AllocFixture F;
  // Restrict to one node so the task must shift.
  F.Params.CandidateNodes = {0};
  F.G.node(0).timeline().reserve(0, 6, 7);
  Job J;
  J.addTask("t", 2, 20);
  J.setDeadline(100);
  CriticalWork W{{0}, 2};
  ASSERT_TRUE(F.allocate(J, W, 0, 100));
  EXPECT_EQ(F.Dist.find(0)->Start, 6);
  ASSERT_EQ(F.Collisions.size(), 1u);
  EXPECT_EQ(F.Collisions[0].Resolution, CollisionResolution::Shifted);
  EXPECT_EQ(F.Collisions[0].BlockingOwner, 7u);
  EXPECT_EQ(F.Collisions[0].NodeId, 0u);
  EXPECT_EQ(F.Collisions[0].WantedStart, 0);
  EXPECT_EQ(F.Collisions[0].ActualStart, 6);
}

TEST(ChainAllocator, ContendedCheaperNodeRecordsMovedCollision) {
  AllocFixture F;
  // Slow, cheapest node 3 busy for a long while: the task moves.
  F.G.node(3).timeline().reserve(0, 200, 9);
  Job J;
  J.addTask("t", 4, 40);
  J.setDeadline(100);
  CriticalWork W{{0}, 4};
  ASSERT_TRUE(F.allocate(J, W, 0, 100));
  EXPECT_NE(F.Dist.find(0)->NodeId, 3u);
  bool FoundMoved = false;
  for (const auto &C : F.Collisions)
    if (C.Resolution == CollisionResolution::Moved && C.NodeId == 3)
      FoundMoved = true;
  EXPECT_TRUE(FoundMoved);
}

TEST(ChainAllocator, LatestFinishFromPlacedSuccessor) {
  AllocFixture F;
  Job J = makeChainJob(100);
  // Place task C (id 2) first, as an earlier critical work would have.
  F.Dist.add({2, 0, 20, 22, 0.0});
  ASSERT_TRUE(F.G.node(0).timeline().reserve(20, 22, 42));
  CriticalWork W{{0, 1}, 7};
  ASSERT_TRUE(F.allocate(J, W, 0, 100));
  const Placement *B = F.Dist.find(1);
  ASSERT_NE(B, nullptr);
  // B must deliver to C by 20: same node means End <= 20, cross node
  // End + transfer <= 20.
  Tick Gap = B->NodeId == 0 ? 0 : 1;
  EXPECT_LE(B->End + Gap, 20);
}

TEST(ChainAllocator, WindowTooTightFails) {
  AllocFixture F;
  Job J = makeChainJob(100);
  // C placed so early that A and B cannot possibly fit before it.
  F.Dist.add({2, 0, 3, 5, 0.0});
  ASSERT_TRUE(F.G.node(0).timeline().reserve(3, 5, 42));
  CriticalWork W{{0, 1}, 7};
  EXPECT_FALSE(F.allocate(J, W, 0, 100));
}

TEST(ChainAllocator, SwitchPenaltyGluesChain) {
  AllocFixture F;
  F.Params.NodeSwitchPenalty = 1e6;
  Job J = makeChainJob(100);
  ASSERT_TRUE(F.allocate(J, wholeChain(J), 0, 100));
  unsigned Node = F.Dist.find(0)->NodeId;
  EXPECT_EQ(F.Dist.find(1)->NodeId, Node);
  EXPECT_EQ(F.Dist.find(2)->NodeId, Node);
}

TEST(ChainAllocator, PlacementsAreReservedForOwner) {
  AllocFixture F;
  Job J = makeChainJob(100);
  ASSERT_TRUE(F.allocate(J, wholeChain(J), 0, 100));
  for (const auto &P : F.Dist.placements()) {
    const Interval *I =
        F.G.node(P.NodeId).timeline().firstOverlap(P.Start, P.End);
    ASSERT_NE(I, nullptr);
    EXPECT_EQ(I->Owner, 42u);
  }
}

TEST(ChainAllocator, EconomicCostIsPositive) {
  AllocFixture F;
  Job J = makeChainJob(100);
  ASSERT_TRUE(F.allocate(J, wholeChain(J), 0, 100));
  for (const auto &P : F.Dist.placements())
    EXPECT_GT(P.EconomicCost, 0.0);
}

TEST(ChainAllocator, SearchingOnlyOpenNodesMatchesSearchingEveryCandidate) {
  // Strategy::build hands the DP only the candidates that are not full
  // (no window for the job's shortest task between the release and the
  // deadline). Leaving them out must change nothing but the work: every
  // outcome, path, distribution and both collision logs stay the same,
  // at every front cap. Random chains (with pinned neighbours and
  // non-adjacent edges) on random loaded timelines; some trials add a
  // node with exactly one window for the shortest task, and a cheaper
  // full node for the Cost bias's `Moved` scan to report.
  const double Perfs[] = {1.0, 0.8, 0.5, 0.4, 0.33, 0.25};
  const DataPolicyKind Kinds[] = {DataPolicyKind::ActiveReplication,
                                  DataPolicyKind::RemoteAccess,
                                  DataPolicyKind::StaticStorage};
  const Network Net;
  Prng Rng(2009);
  size_t Compared = 0, WithFullNodes = 0, MovedToFull = 0;
  size_t Outcomes[3] = {0, 0, 0};
  uint64_t FitsAll = 0, FitsOpen = 0;
  for (int Trial = 0; Trial < 300; ++Trial) {
    const auto N = static_cast<unsigned>(Rng.uniformInt(1, 6));
    const auto K = static_cast<unsigned>(Rng.uniformInt(1, 6));
    Job J;
    for (unsigned T = 0; T < K; ++T) {
      Tick Ref = Rng.uniformInt(1, 4);
      J.addTask("t", Ref, 10.0 * static_cast<double>(Ref));
    }
    for (unsigned T = 1; T < K; ++T)
      J.addEdge(T - 1, T, Rng.uniformInt(0, 3));
    if (K >= 3 && Rng.bernoulli(0.3))
      J.addEdge(0, 2, Rng.uniformInt(2, 6)); // Takes the rerun path.
    const Tick Release = Rng.uniformInt(0, 10);
    const Tick Deadline =
        Release + Rng.uniformInt(2 * Tick(K), 10 * Tick(K) + 10);
    // Placed neighbours outside the chain: a producer that ends just
    // after the release and a consumer near the deadline.
    bool PinPred = Rng.bernoulli(0.4);
    bool PinSucc = Rng.bernoulli(0.4);
    unsigned Pred = 0, Succ = 0;
    // Each edge draws its transfer, then its chain task, in two
    // statements: the order of a call's arguments is unspecified.
    if (PinPred) {
      Pred = J.addTask("p", 1, 10);
      Tick Base = Rng.uniformInt(0, 4);
      J.addEdge(Pred, static_cast<unsigned>(Rng.index(K)), Base);
    }
    if (PinSucc) {
      Succ = J.addTask("s", 1, 10);
      Tick Base = Rng.uniformInt(0, 4);
      J.addEdge(static_cast<unsigned>(Rng.index(K)), Succ, Base);
    }
    J.setDeadline(Deadline);
    Tick Shortest = J.task(0).RefTicks;
    for (unsigned T = 1; T < J.taskCount(); ++T)
      Shortest = std::min(Shortest, J.task(T).RefTicks);

    // The grid: random background load, one node reserved through the
    // deadline now and then, and the two special nodes.
    const bool Special = Trial % 3 == 0 && N >= 3;
    const unsigned CheapFull =
        Special ? static_cast<unsigned>(Rng.index(N)) : N;
    const unsigned OneWindow =
        Special ? (CheapFull + 1 + static_cast<unsigned>(Rng.index(N - 1))) % N
                : N;
    bool HasOneWindow = false;
    Grid Env;
    for (unsigned Id = 0; Id < N; ++Id) {
      double Perf = Perfs[Rng.index(6)];
      if (Id == CheapFull)
        Env.addNodePriced(Perf, 0.01);
      else
        Env.addNode(Perf);
      Timeline &Line = Env.node(Id).timeline();
      Tick Dur = Env.node(Id).execTicks(Shortest);
      if (Id == OneWindow && Deadline - Dur > Release) {
        // The only window: [Deadline - Dur, Deadline).
        Line.reserve(0, Deadline - Dur, 9);
        Line.reserve(Deadline, Deadline + 50, 9);
        HasOneWindow = true;
      } else if (Id == CheapFull || Rng.bernoulli(0.15)) {
        Line.reserve(0, Deadline + 50, 9);
      } else {
        for (int64_t I = Rng.uniformInt(0, 4); I > 0; --I) {
          Tick Begin = Rng.uniformInt(0, Deadline);
          Line.reserve(Begin, Begin + Rng.uniformInt(1, 8), 9);
        }
      }
    }

    // Full nodes, decided on the background load as Strategy::build does.
    AllocatorPolicy Params;
    std::vector<unsigned> Open;
    for (unsigned Id = 0; Id < N; ++Id) {
      Params.CandidateNodes.push_back(Id);
      const ProcessorNode &Node = Env.node(Id);
      Tick Dur = Node.execTicks(Shortest);
      if (Node.timeline().earliestFit(Release, Dur) + Dur <= Deadline)
        Open.push_back(Id);
    }
    if (HasOneWindow) {
      EXPECT_NE(std::find(Open.begin(), Open.end(), OneWindow), Open.end());
    }
    WithFullNodes += Open.size() < N;

    // Pin the neighbours: the job's own reservations on the scratch grid.
    Distribution Pinned;
    Grid Pinning = Env;
    if (PinPred) {
      unsigned Node = static_cast<unsigned>(Rng.index(N));
      Tick End = Release + Rng.uniformInt(1, 4);
      if (Pinning.node(Node).timeline().reserve(End - 1, End, 42))
        Pinned.add({Pred, Node, End - 1, End, 1.0});
    }
    if (PinSucc) {
      unsigned Node = static_cast<unsigned>(Rng.index(N));
      Tick Start = Deadline - Rng.uniformInt(1, 6);
      if (Pinning.node(Node).timeline().reserve(Start, Start + 1, 42))
        Pinned.add({Succ, Node, Start, Start + 1, 1.0});
    }

    CriticalWork W;
    for (unsigned T = 0; T < K; ++T)
      W.TaskIds.push_back(T);
    DataPolicyKind Kind = Kinds[Rng.index(3)];
    Params.NodeSwitchPenalty = Rng.bernoulli(0.3) ? 5.0 : 0.0;
    for (size_t Cap : {size_t(2), size_t(3), size_t(8), SIZE_MAX}) {
      Params.MaxFrontSize = Cap;
      Params.SearchNodes.reset();
      BothBiases All = allocateBoth(J, W, Pinning, Net, Kind, Pinned, Params,
                                    Release, Deadline);
      Params.SearchNodes = Open;
      BothBiases Searched = allocateBoth(J, W, Pinning, Net, Kind, Pinned,
                                         Params, Release, Deadline);
      std::string Diff = firstDifference(All, Searched);
      ASSERT_EQ(Diff, "") << "trial " << Trial << ", cap " << Cap;
      ++Compared;
      ++Outcomes[static_cast<size_t>(All.Outcome)];
      FitsAll += All.Work.FitQueries;
      FitsOpen += Searched.Work.FitQueries;
      for (const CollisionRecord &C : All.Logs[0])
        MovedToFull += C.Resolution == CollisionResolution::Moved &&
                       C.NodeId == CheapFull;
    }
  }
  // The comparison is not vacuous: full nodes left the search and saved
  // queries, the `Moved` scan reported a full node, and every outcome
  // occurred.
  EXPECT_EQ(Compared, 1200u);
  EXPECT_GT(WithFullNodes, 50u);
  EXPECT_GT(MovedToFull, 0u);
  for (size_t Outcome : Outcomes)
    EXPECT_GT(Outcome, 0u);
  EXPECT_LT(FitsOpen, FitsAll);
}

TEST(ChainAllocator, PinnedDigestOfRandomChainsAtTightWindows) {
  // The DP's byte-identity oracle at the feasibility edge. Random chains
  // (pinned neighbours, non-adjacent edges) get deadlines between about
  // half and twice their work on a unit-speed node, on random loaded
  // timelines, so many forward passes end with no label at the last
  // position and many fronts cannot feed one that does. Every decision
  // of both biases, split and resumed as the scheduler does, is hashed
  // at four front caps. A change that is meant to leave every decision
  // as it is must leave this constant as it is.
  const double Perfs[] = {1.0, 0.8, 0.5, 0.4, 0.33, 0.25};
  const DataPolicyKind Kinds[] = {DataPolicyKind::ActiveReplication,
                                  DataPolicyKind::RemoteAccess,
                                  DataPolicyKind::StaticStorage};
  const Network Net;
  obs::Counter &Evictions =
      obs::Registry::global().counter("cws_chain_front_evictions_total");
  const uint64_t Evicted0 = Evictions.value();
  Prng Rng(1309);
  std::string Text;
  size_t Outcomes[3] = {0, 0, 0};
  uint64_t Unreachable = 0, Skipped = 0;
  for (int Trial = 0; Trial < 1000; ++Trial) {
    const auto N = static_cast<unsigned>(Rng.uniformInt(1, 6));
    const auto K = static_cast<unsigned>(Rng.uniformInt(1, 7));
    Job J;
    Tick Work = 0;
    for (unsigned T = 0; T < K; ++T) {
      Tick Ref = Rng.uniformInt(1, 4);
      J.addTask("t", Ref, 10.0 * static_cast<double>(Ref));
      Work += Ref;
    }
    for (unsigned T = 1; T < K; ++T)
      J.addEdge(T - 1, T, Rng.uniformInt(0, 3));
    if (K >= 3 && Rng.bernoulli(0.2))
      J.addEdge(0, 2, Rng.uniformInt(2, 6)); // Takes the rerun path.
    const Tick Release = Rng.uniformInt(0, 10);
    const Tick Deadline = Release + Rng.uniformInt(Work / 2 + 1, 2 * Work + 4);
    bool PinPred = Rng.bernoulli(0.4);
    bool PinSucc = Rng.bernoulli(0.4);
    unsigned Pred = 0, Succ = 0;
    // Each edge draws its transfer, then its chain task, in two
    // statements: the order of a call's arguments is unspecified.
    if (PinPred) {
      Pred = J.addTask("p", 1, 10);
      Tick Base = Rng.uniformInt(0, 4);
      J.addEdge(Pred, static_cast<unsigned>(Rng.index(K)), Base);
    }
    if (PinSucc) {
      Succ = J.addTask("s", 1, 10);
      Tick Base = Rng.uniformInt(0, 4);
      J.addEdge(static_cast<unsigned>(Rng.index(K)), Succ, Base);
    }
    J.setDeadline(Deadline);

    Grid Env;
    AllocatorPolicy Params;
    for (unsigned Id = 0; Id < N; ++Id) {
      Env.addNode(Perfs[Rng.index(6)]);
      Params.CandidateNodes.push_back(Id);
      Timeline &Line = Env.node(Id).timeline();
      for (int64_t I = Rng.uniformInt(0, 5); I > 0; --I) {
        Tick Begin = Rng.uniformInt(0, Deadline);
        Line.reserve(Begin, Begin + Rng.uniformInt(1, 8), 9);
      }
    }
    Distribution Pinned;
    if (PinPred) {
      unsigned Node = static_cast<unsigned>(Rng.index(N));
      Tick End = Release + Rng.uniformInt(1, 4);
      if (Env.node(Node).timeline().reserve(End - 1, End, 42))
        Pinned.add({Pred, Node, End - 1, End, 1.0});
    }
    if (PinSucc) {
      unsigned Node = static_cast<unsigned>(Rng.index(N));
      Tick Start = Deadline - Rng.uniformInt(0, 4);
      if (Env.node(Node).timeline().reserve(Start, Start + 1, 42))
        Pinned.add({Succ, Node, Start, Start + 1, 1.0});
    }

    CriticalWork W;
    for (unsigned T = 0; T < K; ++T)
      W.TaskIds.push_back(T);
    DataPolicyKind Kind = Kinds[Rng.index(3)];
    Params.NodeSwitchPenalty = Rng.bernoulli(0.3) ? 5.0 : 0.0;
    for (size_t Cap : {size_t(2), size_t(3), size_t(8), SIZE_MAX}) {
      Params.MaxFrontSize = Cap;
      BothBiases R = allocateBoth(J, W, Env, Net, Kind, Pinned, Params,
                                  Release, Deadline);
      Text += describe(R);
      ++Outcomes[static_cast<size_t>(R.Outcome)];
      Unreachable += R.Work.PassesUnreachable;
      Skipped += R.Work.FrontsSkipped;
    }
  }
  // Not vacuous: every outcome occurred and capped fronts evicted
  // labels. How far the sweeps reach is pinned too: a looser bound keeps
  // every decision but fails fewer passes before building a front, or
  // skips fewer fronts.
  for (size_t Outcome : Outcomes)
    EXPECT_GT(Outcome, 0u);
  EXPECT_GT(Evictions.value() - Evicted0, 0u);
  EXPECT_EQ(Unreachable, 2356u);
  EXPECT_EQ(Skipped, 9558u);
  EXPECT_EQ(obs::fnv1a64(Text), 0xcb59abd136334075ULL)
      << Text.size() << " bytes";
}

TEST(ChainAllocator, PinnedDigestOfNearTieChains) {
  // The DP's byte-identity oracle where costs tie. Every task runs one
  // tick on every node, and a node's price is 1 plus 0 to 7 quarters of
  // the cost epsilon, so distinct paths often cost exactly the same or
  // within 2 * CostEpsilon of each other; some trials add a node-switch
  // penalty of one epsilon. Every decision of both biases, split and
  // resumed as the scheduler does, is hashed at four front caps. The
  // constant was recorded while every front kept every label; at the
  // last position such ties are where a front that keeps only its
  // extremes must fall back to full fronts, and without the fallback
  // several of these decisions change.
  const DataPolicyKind Kinds[] = {DataPolicyKind::ActiveReplication,
                                  DataPolicyKind::RemoteAccess,
                                  DataPolicyKind::StaticStorage};
  const Network Net;
  Prng Rng(2025);
  std::string Text;
  size_t Outcomes[3] = {0, 0, 0};
  uint64_t Fallbacks = 0;
  for (int Trial = 0; Trial < 1000; ++Trial) {
    const auto N = static_cast<unsigned>(Rng.uniformInt(2, 6));
    const auto K = static_cast<unsigned>(Rng.uniformInt(2, 5));
    Job J;
    for (unsigned T = 0; T < K; ++T)
      J.addTask("t", 1, 10);
    for (unsigned T = 1; T < K; ++T)
      J.addEdge(T - 1, T, 0);
    const Tick Release = Rng.uniformInt(0, 4);
    const Tick Deadline = Release + Rng.uniformInt(K + 2, 3 * K + 8);
    J.setDeadline(Deadline);

    Grid Env;
    AllocatorPolicy Params;
    for (unsigned Id = 0; Id < N; ++Id) {
      double Nudge = static_cast<double>(Rng.uniformInt(0, 7)) * CostEpsilon / 4;
      Env.addNodePriced(1.0, 1.0 + Nudge);
      Params.CandidateNodes.push_back(Id);
      Timeline &Line = Env.node(Id).timeline();
      for (int64_t I = Rng.uniformInt(0, 4); I > 0; --I) {
        Tick Begin = Rng.uniformInt(0, Deadline);
        Line.reserve(Begin, Begin + Rng.uniformInt(1, 4), 9);
      }
    }

    CriticalWork W;
    for (unsigned T = 0; T < K; ++T)
      W.TaskIds.push_back(T);
    DataPolicyKind Kind = Kinds[Rng.index(3)];
    Params.NodeSwitchPenalty = Rng.bernoulli(0.3) ? CostEpsilon : 0.0;
    for (size_t Cap : {size_t(2), size_t(3), size_t(8), SIZE_MAX}) {
      Params.MaxFrontSize = Cap;
      BothBiases R = allocateBoth(J, W, Env, Net, Kind, Distribution(), Params,
                                  Release, Deadline);
      Text += describe(R);
      ++Outcomes[static_cast<size_t>(R.Outcome)];
      Fallbacks += R.Work.TieFallbacks;
    }
  }
  // Not vacuous: every outcome occurred, and near ties sent last
  // positions back to full fronts.
  for (size_t Outcome : Outcomes)
    EXPECT_GT(Outcome, 0u);
  EXPECT_GT(Fallbacks, 0u);
  EXPECT_EQ(obs::fnv1a64(Text), 0xa20fc2ba2b578a9eULL) << Text.size() << " bytes";
}

TEST(ChainAllocator, PinnedDigestOfIncomingBestChains) {
  // The DP's byte-identity oracle where a last-position candidate sits
  // next to the best label of a front the pick reads before its own.
  // Nodes come in groups with one price and one timeline, so finishes
  // tie across fronts; prices differ by 0 to 11 quarters of the cost
  // epsilon, so a candidate often costs within 1 to 3 epsilons of
  // another front's cheapest label; a node in six is half as fast and
  // dearer, so many candidates are plainly beaten. Every decision of
  // both biases, split and resumed as the scheduler does, is hashed at
  // four front caps. The constant was recorded while every last-position
  // front was built whatever the fronts before it held.
  const DataPolicyKind Kinds[] = {DataPolicyKind::ActiveReplication,
                                  DataPolicyKind::RemoteAccess,
                                  DataPolicyKind::StaticStorage};
  const Network Net;
  Prng Rng(4177);
  std::string Text;
  size_t Outcomes[3] = {0, 0, 0};
  uint64_t Fallbacks = 0, Queries = 0;
  for (int Trial = 0; Trial < 1000; ++Trial) {
    const auto N = static_cast<unsigned>(Rng.uniformInt(3, 7));
    const auto K = static_cast<unsigned>(Rng.uniformInt(2, 5));
    Job J;
    for (unsigned T = 0; T < K; ++T)
      J.addTask("t", 1, 10);
    for (unsigned T = 1; T < K; ++T)
      J.addEdge(T - 1, T, Rng.uniformInt(0, 1));
    const Tick Release = Rng.uniformInt(0, 4);
    const Tick Deadline = Release + Rng.uniformInt(K + 3, 3 * K + 10);
    J.setDeadline(Deadline);

    Grid Env;
    AllocatorPolicy Params;
    std::vector<std::pair<Tick, Tick>> Busy;
    for (unsigned Id = 0; Id < N; ++Id) {
      bool NewGroup = Id == 0 || Rng.bernoulli(0.5);
      if (NewGroup) {
        double Nudge =
            static_cast<double>(Rng.uniformInt(0, 11)) * CostEpsilon / 4;
        bool Slow = Rng.bernoulli(1.0 / 6);
        Env.addNodePriced(Slow ? 0.5 : 1.0, Slow ? 0.75 + Nudge : 1.0 + Nudge);
        Busy.clear();
        for (int64_t I = Rng.uniformInt(0, 4); I > 0; --I) {
          Tick Begin = Rng.uniformInt(0, Deadline);
          Busy.push_back({Begin, Begin + Rng.uniformInt(1, 4)});
        }
      } else {
        const ProcessorNode &Like = Env.node(Id - 1);
        Env.addNodePriced(Like.relPerf(), Like.pricePerTick());
      }
      Params.CandidateNodes.push_back(Id);
      for (auto [Begin, End] : Busy)
        Env.node(Id).timeline().reserve(Begin, End, 9);
    }

    CriticalWork W;
    for (unsigned T = 0; T < K; ++T)
      W.TaskIds.push_back(T);
    DataPolicyKind Kind = Kinds[Rng.index(3)];
    Params.NodeSwitchPenalty = Rng.bernoulli(0.3) ? CostEpsilon : 0.0;
    for (size_t Cap : {size_t(2), size_t(3), size_t(8), SIZE_MAX}) {
      Params.MaxFrontSize = Cap;
      BothBiases R = allocateBoth(J, W, Env, Net, Kind, Distribution(), Params,
                                  Release, Deadline);
      Text += describe(R);
      ++Outcomes[static_cast<size_t>(R.Outcome)];
      Fallbacks += R.Work.TieFallbacks;
      Queries += R.Work.FitQueries;
    }
  }
  // Not vacuous: every outcome occurred, and last positions still went
  // back to full fronts. The skip fired: building every last-position
  // front whatever the fronts before it held ran 185,677 earliest-fit
  // queries.
  for (size_t Outcome : Outcomes)
    EXPECT_GT(Outcome, 0u);
  EXPECT_GT(Fallbacks, 0u);
  EXPECT_EQ(Queries, 173859u);
  EXPECT_EQ(obs::fnv1a64(Text), 0xd4c664cf97f55cf3ULL) << Text.size() << " bytes";
}

TEST(ChainAllocator, PinnedDigestAtNonDefaultTransferSettings) {
  // The DP's byte-identity oracle away from the default transfer model,
  // where the other pinned digests never go. A transfer between two
  // nodes pays a latency of 3 ticks on top of 1.7 times its base, the
  // policy's factors are not the defaults, and many edges carry no data,
  // so they cost the latency alone. Grids have 65 to 100 nodes, and the
  // candidates always include an id above 64. Some data already has
  // replicas before the chain is placed: the pinned producers' data, and
  // chain tasks' data, as a collision repair leaves it behind when it
  // releases a placement. Chains carry parallel and non-adjacent edges,
  // and now and then a cheap candidate is full for the Cost bias's
  // `Moved` scan to report. Every decision of both biases, split and
  // resumed as the scheduler does, is hashed at four front caps. No call
  // takes two random draws as arguments, so the draws do not depend on
  // the order in which a compiler evaluates arguments.
  const double Perfs[] = {1.0, 0.8, 0.5, 0.4, 0.33, 0.25};
  const DataPolicyKind Kinds[] = {DataPolicyKind::ActiveReplication,
                                  DataPolicyKind::RemoteAccess,
                                  DataPolicyKind::StaticStorage};
  NetworkConfig NetConfig;
  NetConfig.TransferScale = 1.7;
  NetConfig.Latency = 3;
  const Network Net(NetConfig);
  DataPolicyConfig DataConfig;
  DataConfig.ReplicationFactor = 0.55;
  DataConfig.StaticPenalty = 1.45;
  DataConfig.ReplicationBilling = 0.3;
  Prng Rng(6464);
  std::string Text;
  size_t Outcomes[3] = {0, 0, 0};
  size_t HighPlacements = 0, Moved = 0;
  for (int Trial = 0; Trial < 1000; ++Trial) {
    const auto M = static_cast<unsigned>(Rng.uniformInt(65, 100));
    const auto N = static_cast<unsigned>(Rng.uniformInt(1, 6));
    const auto K = static_cast<unsigned>(Rng.uniformInt(1, 6));
    Job J;
    Tick Work = 0;
    for (unsigned T = 0; T < K; ++T) {
      Tick Ref = Rng.uniformInt(1, 4);
      J.addTask("t", Ref, 10.0 * static_cast<double>(Ref));
      Work += Ref;
    }
    for (unsigned T = 1; T < K; ++T) {
      J.addEdge(T - 1, T, Rng.bernoulli(0.4) ? 0 : Rng.uniformInt(1, 3));
      if (Rng.bernoulli(0.15))
        J.addEdge(T - 1, T, Rng.uniformInt(0, 5)); // A parallel edge.
    }
    if (K >= 3 && Rng.bernoulli(0.2))
      J.addEdge(0, 2, Rng.uniformInt(0, 6)); // Takes the rerun path.
    const Tick Release = Rng.uniformInt(0, 10);
    const Tick Deadline =
        Release + Rng.uniformInt(Work, 3 * Work + 4 * Tick(K) + 8);
    // Placed neighbours outside the chain: producers that end just after
    // the release and consumers near the deadline.
    std::vector<unsigned> Preds, Succs;
    for (int64_t I = Rng.uniformInt(0, 2); I > 0; --I) {
      Preds.push_back(J.addTask("p", 1, 10));
      auto Consumer = static_cast<unsigned>(Rng.index(K));
      J.addEdge(Preds.back(), Consumer, Rng.uniformInt(0, 4));
    }
    for (int64_t I = Rng.uniformInt(0, 2); I > 0; --I) {
      Succs.push_back(J.addTask("s", 1, 10));
      auto Producer = static_cast<unsigned>(Rng.index(K));
      J.addEdge(Producer, Succs.back(), Rng.uniformInt(0, 4));
    }
    J.setDeadline(Deadline);

    // The candidates, in id order: one above 64, the rest anywhere.
    std::vector<unsigned> Cand{64 + static_cast<unsigned>(Rng.index(M - 64))};
    while (Cand.size() < N) {
      auto Id = static_cast<unsigned>(Rng.index(M));
      if (std::find(Cand.begin(), Cand.end(), Id) == Cand.end())
        Cand.push_back(Id);
    }
    std::sort(Cand.begin(), Cand.end());
    const unsigned CheapFull =
        Trial % 4 == 0 && N >= 2 ? Cand[Rng.index(N)] : M;
    Grid Env;
    for (unsigned Id = 0; Id < M; ++Id) {
      double Perf = Perfs[Rng.index(6)];
      if (Id == CheapFull)
        Env.addNodePriced(Perf, 0.01);
      else
        Env.addNode(Perf);
    }
    for (unsigned Id : Cand) {
      Timeline &Line = Env.node(Id).timeline();
      if (Id == CheapFull) {
        Line.reserve(0, Deadline + 50, 9);
        continue;
      }
      for (int64_t I = Rng.uniformInt(0, 5); I > 0; --I) {
        Tick Begin = Rng.uniformInt(0, Deadline);
        Line.reserve(Begin, Begin + Rng.uniformInt(1, 8), 9);
      }
    }
    auto AnyNode = [&] {
      return Rng.bernoulli(0.5) ? Cand[Rng.index(N)]
                                : static_cast<unsigned>(Rng.index(M));
    };
    Distribution Pinned;
    for (unsigned Pred : Preds) {
      unsigned Node = AnyNode();
      Tick End = Release + Rng.uniformInt(1, 4);
      if (Env.node(Node).timeline().reserve(End - 1, End, 42))
        Pinned.add({Pred, Node, End - 1, End, 1.0});
    }
    for (unsigned Succ : Succs) {
      unsigned Node = AnyNode();
      Tick Start = Deadline - Rng.uniformInt(0, 6);
      if (Env.node(Node).timeline().reserve(Start, Start + 1, 42))
        Pinned.add({Succ, Node, Start, Start + 1, 1.0});
    }

    DataPolicyKind Kind = Kinds[Rng.index(3)];
    DataPolicy Policy(Kind, Net, DataConfig);
    for (int64_t I = Rng.uniformInt(0, 5); I > 0; --I) {
      unsigned Producer = !Preds.empty() && Rng.bernoulli(0.5)
                              ? Preds[Rng.index(Preds.size())]
                              : static_cast<unsigned>(Rng.index(K));
      Tick Base = Rng.uniformInt(0, 4);
      auto Src = static_cast<unsigned>(Rng.index(M));
      Policy.transferTicks(Producer, Base, Src, AnyNode());
    }

    CriticalWork W;
    for (unsigned T = 0; T < K; ++T)
      W.TaskIds.push_back(T);
    AllocatorPolicy Params;
    Params.CandidateNodes = Cand;
    Params.NodeSwitchPenalty = Rng.bernoulli(0.3) ? 5.0 : 0.0;
    for (size_t Cap : {size_t(2), size_t(3), size_t(8), SIZE_MAX}) {
      Params.MaxFrontSize = Cap;
      BothBiases R = allocateBoth(J, W, Env, Policy, Pinned, Params, Release,
                                  Deadline);
      Text += describe(R);
      ++Outcomes[static_cast<size_t>(R.Outcome)];
      for (size_t Bias = 0; Bias < 2; ++Bias)
        for (const Placement &P : R.Dist[Bias].placements())
          HighPlacements += P.TaskId < K && P.NodeId >= 64;
      for (const CollisionRecord &C : R.Logs[0])
        Moved += C.Resolution == CollisionResolution::Moved;
    }
  }
  // Not vacuous: every outcome occurred, chain tasks landed on nodes
  // above 64, and the `Moved` scan reported contended nodes.
  for (size_t Outcome : Outcomes)
    EXPECT_GT(Outcome, 0u);
  EXPECT_GT(HighPlacements, 0u);
  EXPECT_GT(Moved, 0u);
  EXPECT_EQ(obs::fnv1a64(Text), 0x05f4ef4b5ce164b0ULL) << Text.size() << " bytes";
}

TEST(ChainAllocator, BandCandidateAfterASkipDecidesTheCostPick) {
  // Task 0 (1 ref tick) runs one tick everywhere; task 1 (2 ref ticks)
  // fits only on the double-speed nodes 0 and 2, in one tick. Node 1
  // (price 1) runs task 0 at [7, 8), nodes 3-5 (prices 1 + 7.2, 6.5 and
  // 5.8 eps) at [2, 3), [3, 4) and [5, 6). Node 0 (price 10 + 5 eps) is
  // free at [0, 2) and [9, 10), so its last-position front holds
  // (2, 20 + 10 eps) and (10, B) with B = 11 + 5 eps: the Time pick's
  // best finish is 2, and the Cost pick's best costs B and finishes at
  // 10. Node 2 (price 10) is free at [1, 8), so its front sees
  // (2, 20 + 5 eps), then (4, B + 2.2 eps), which both picks already
  // beat, then (5, B + 1.5 eps), in the band next to B and dominated by
  // the beaten candidate, then (7, B + 0.8 eps), which only that band
  // candidate dominates. So the full front keeps (7, B + 0.8 eps),
  // within the epsilon of B and earlier, and the Cost pick takes it on
  // node 2. A front that skipped the beaten candidate without going back
  // to full fronts would keep the band candidate, lose (7, B + 0.8 eps)
  // to it, and leave the Cost pick on node 0.
  Grid Env;
  Env.addNodePriced(2.0, 10.0 + 5 * CostEpsilon);
  Env.addNodePriced(1.0, 1.0);
  Env.addNodePriced(2.0, 10.0);
  Env.addNodePriced(1.0, 1.0 + 7.2 * CostEpsilon);
  Env.addNodePriced(1.0, 1.0 + 6.5 * CostEpsilon);
  Env.addNodePriced(1.0, 1.0 + 5.8 * CostEpsilon);
  const std::pair<Tick, Tick> Free[] = {{0, 2}, {7, 8}, {1, 8},
                                        {2, 3}, {3, 4}, {5, 6}};
  for (unsigned Id = 0; Id < 6; ++Id) {
    Timeline &Line = Env.node(Id).timeline();
    auto [Begin, End] = Free[Id];
    if (Begin > 0) {
      ASSERT_TRUE(Line.reserve(0, Begin, 9));
    }
    if (Id == 0) { // Also free at [9, 10).
      ASSERT_TRUE(Line.reserve(2, 9, 9));
      Begin = 9;
      End = 10;
    }
    ASSERT_TRUE(Line.reserve(End, 100, 9));
  }
  Job J;
  J.addTask("t0", 1, 10);
  J.addTask("t1", 2, 10);
  J.addEdge(0, 1, 0);
  J.setDeadline(20);
  CriticalWork W{{0, 1}, 3};
  AllocatorPolicy Params;
  Params.CandidateNodes = {0, 1, 2, 3, 4, 5};
  for (size_t Cap : {size_t(2), size_t(3), size_t(8), SIZE_MAX}) {
    Params.MaxFrontSize = Cap;
    BothBiases R = allocateBoth(J, W, Env, Network(),
                                DataPolicyKind::RemoteAccess, Distribution(),
                                Params, 0, 20);
    ASSERT_EQ(R.Outcome, ChainOutcome::Split) << Cap;
    const std::vector<Placement> &Cost = R.Dist[0].placements();
    const std::vector<Placement> &Time = R.Dist[1].placements();
    ASSERT_EQ(Cost.size(), 2u);
    ASSERT_EQ(Time.size(), 2u);
    EXPECT_EQ(Cost[0].NodeId, 5u) << Cap;
    EXPECT_EQ(Cost[1].NodeId, 2u) << Cap;
    EXPECT_EQ(Cost[1].End, 7) << Cap;
    EXPECT_EQ(Time[0].NodeId, 0u) << Cap;
    EXPECT_EQ(Time[1].NodeId, 2u) << Cap;
    EXPECT_EQ(Time[1].End, 2) << Cap;
    EXPECT_GT(R.Work.TieFallbacks, 0u) << Cap;
  }
}

TEST(ChainAllocator, MiddleLabelNearTieDecidesTheCostPick) {
  // Two one-tick tasks; the chain edge carries no data. Task 0 fits only
  // on nodes 2-4 (no room for task 1 there), finishing at 1, 3 and 5 at
  // costs 1 + 5.9 eps, 1 + 1.8 eps and 1. Task 1 runs on node 0 (price
  // 10, free from 5) or node 1 (0.9 eps cheaper, free from 1). At the
  // last position node 0's front holds (6, 11) and node 1's holds
  // (2, 11 + 5 eps), (4, 11 + 0.9 eps) and (6, 11 - 0.9 eps). The Cost
  // pick reads node 0's label first: node 1's cheapest label alone does
  // not beat it (cheaper by less than the epsilon, no earlier), but the
  // middle one does (within the epsilon and earlier), and the cheapest
  // then beats the middle one. So the pick takes node 1, which a front
  // keeping only its extremes would miss: its middle label costs 1.8 eps
  // more than its cheapest one, and a near-tie window narrower than
  // 2 * CostEpsilon would not send it back to full fronts. At cap 2 the
  // full front drops that middle label itself, and the pick stays on
  // node 0. The Time pick takes the earliest finish, on node 1.
  Grid Env;
  Env.addNodePriced(1.0, 10.0);
  Env.addNodePriced(1.0, 10.0 - 0.9 * CostEpsilon);
  Env.addNodePriced(1.0, 1.0 + 5.9 * CostEpsilon);
  Env.addNodePriced(1.0 / 3, (1.0 + 1.8 * CostEpsilon) / 3); // 3 ticks.
  Env.addNodePriced(0.2, 0.2);                                // 5 ticks.
  ASSERT_TRUE(Env.node(0).timeline().reserve(0, 5, 9));
  ASSERT_TRUE(Env.node(1).timeline().reserve(0, 1, 9));
  ASSERT_TRUE(Env.node(2).timeline().reserve(1, 100, 9));
  ASSERT_TRUE(Env.node(3).timeline().reserve(3, 100, 9));
  ASSERT_TRUE(Env.node(4).timeline().reserve(5, 100, 9));
  Job J;
  J.addTask("t0", 1, 10);
  J.addTask("t1", 1, 10);
  J.addEdge(0, 1, 0);
  J.setDeadline(6);
  CriticalWork W{{0, 1}, 2};
  AllocatorPolicy Params;
  Params.CandidateNodes = {0, 1, 2, 3, 4};
  for (size_t Cap : {size_t(2), size_t(3), size_t(8), SIZE_MAX}) {
    Params.MaxFrontSize = Cap;
    BothBiases R = allocateBoth(J, W, Env, Network(),
                                DataPolicyKind::RemoteAccess, Distribution(),
                                Params, 0, 6);
    ASSERT_EQ(R.Outcome, ChainOutcome::Split) << Cap;
    const std::vector<Placement> &Cost = R.Dist[0].placements();
    const std::vector<Placement> &Time = R.Dist[1].placements();
    ASSERT_EQ(Cost.size(), 2u);
    ASSERT_EQ(Time.size(), 2u);
    EXPECT_EQ(Cost[0].NodeId, 4u) << Cap;
    EXPECT_EQ(Cost[1].NodeId, Cap == 2 ? 0u : 1u) << Cap;
    EXPECT_EQ(Cost[1].Start, 5) << Cap;
    EXPECT_EQ(Time[0].NodeId, 2u) << Cap;
    EXPECT_EQ(Time[1].NodeId, 1u) << Cap;
    EXPECT_EQ(Time[1].End, 2) << Cap;
    // The near tie sends the last position back to full fronts.
    EXPECT_GT(R.Work.TieFallbacks, 0u) << Cap;
  }
}

//===-- tests/test_pareto_front.cpp - Pareto front maintenance tests ------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "core/ParetoFront.h"
#include "support/Prng.h"
#include "support/SmallVector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

using namespace cws;

namespace {

/// The (Finish, Cost) shape of the chain DP's labels.
struct L {
  int64_t Finish;
  double Cost;
};

bool operator==(const L &A, const L &B) {
  return A.Finish == B.Finish && A.Cost == B.Cost;
}

/// The reference semantics `paretoInsert` must reproduce: a full linear
/// scan (as the allocator did before the fast path) over an unordered
/// membership view of the front.
template <typename FrontT>
bool referenceInsert(FrontT &Front, const L &New, size_t MaxFrontSize) {
  for (const L &E : Front)
    if (E.Finish <= New.Finish && costLeq(E.Cost, New.Cost))
      return false; // Dominated by an incumbent (ties keep it).
  for (auto It = Front.begin(); It != Front.end();)
    if (It->Finish >= New.Finish && costLeq(New.Cost, It->Cost))
      It = Front.erase(It);
    else
      ++It;
  auto Pos = Front.begin();
  while (Pos != Front.end() && Pos->Finish < New.Finish)
    ++Pos;
  Front.insert(Pos, New);
  if (Front.size() > MaxFrontSize)
    Front.erase(Front.begin() + static_cast<ptrdiff_t>(Front.size() / 2));
  return true;
}

TEST(CostLeq, ToleratesTheEpsilonBothWays) {
  EXPECT_TRUE(costLeq(1.0, 1.0));
  EXPECT_TRUE(costLeq(1.0 + CostEpsilon / 2, 1.0));
  EXPECT_TRUE(costLeq(1.0, 1.0 + CostEpsilon / 2));
  EXPECT_FALSE(costLeq(1.0 + 2 * CostEpsilon, 1.0));
  EXPECT_TRUE(costLeq(0.5, 1.0));
  EXPECT_FALSE(costLeq(1.0, 0.5));
}

TEST(ParetoInsert, FirstLabelAlwaysEnters) {
  std::vector<L> F;
  ParetoInsertOutcome O = paretoInsert(F, L{10, 5.0}, 8);
  EXPECT_TRUE(O.Inserted);
  EXPECT_FALSE(O.EvictedForCap);
  ASSERT_EQ(F.size(), 1u);
  EXPECT_EQ(F[0], (L{10, 5.0}));
}

TEST(ParetoInsert, DominatedByEarlierCheaperLabelIsRejected) {
  std::vector<L> F;
  EXPECT_TRUE(paretoInsert(F, L{10, 5.0}, 8).Inserted);
  // Later finish, same cost: strictly worse.
  EXPECT_FALSE(paretoInsert(F, L{12, 5.0}, 8).Inserted);
  // Later finish, more expensive: strictly worse.
  EXPECT_FALSE(paretoInsert(F, L{12, 7.0}, 8).Inserted);
  EXPECT_EQ(F.size(), 1u);
}

TEST(ParetoInsert, EqualFinishTieKeepsTheIncumbent) {
  std::vector<L> F;
  EXPECT_TRUE(paretoInsert(F, L{10, 5.0}, 8).Inserted);
  // Same (Finish, Cost): the incumbent survives, the copy is dropped.
  EXPECT_FALSE(paretoInsert(F, L{10, 5.0}, 8).Inserted);
  // Equal within the epsilon counts as a tie, not an improvement.
  EXPECT_FALSE(paretoInsert(F, L{10, 5.0 + CostEpsilon / 2}, 8).Inserted);
  EXPECT_EQ(F.size(), 1u);
}

TEST(ParetoInsert, EqualFinishCheaperLabelReplaces) {
  std::vector<L> F;
  EXPECT_TRUE(paretoInsert(F, L{10, 5.0}, 8).Inserted);
  EXPECT_TRUE(paretoInsert(F, L{10, 3.0}, 8).Inserted);
  ASSERT_EQ(F.size(), 1u);
  EXPECT_EQ(F[0], (L{10, 3.0}));
}

TEST(ParetoInsert, EqualCostEarlierFinishReplaces) {
  std::vector<L> F;
  EXPECT_TRUE(paretoInsert(F, L{10, 5.0}, 8).Inserted);
  EXPECT_TRUE(paretoInsert(F, L{8, 5.0}, 8).Inserted);
  ASSERT_EQ(F.size(), 1u);
  EXPECT_EQ(F[0], (L{8, 5.0}));
}

TEST(ParetoInsert, DominatedSuffixIsErasedInOneRange) {
  std::vector<L> F;
  // A clean front: Finish ascending, Cost strictly descending.
  EXPECT_TRUE(paretoInsert(F, L{4, 9.0}, 8).Inserted);
  EXPECT_TRUE(paretoInsert(F, L{6, 7.0}, 8).Inserted);
  EXPECT_TRUE(paretoInsert(F, L{8, 5.0}, 8).Inserted);
  EXPECT_TRUE(paretoInsert(F, L{10, 3.0}, 8).Inserted);
  // Finishes before 6 and is cheaper than everything from there on:
  // evicts {6,7}, {8,5}, {10,3} in one contiguous erase.
  EXPECT_TRUE(paretoInsert(F, L{5, 2.0}, 8).Inserted);
  ASSERT_EQ(F.size(), 2u);
  EXPECT_EQ(F[0], (L{4, 9.0}));
  EXPECT_EQ(F[1], (L{5, 2.0}));
}

TEST(ParetoInsert, CapEvictionDropsTheMiddleAndKeepsBothExtremes) {
  std::vector<L> F;
  for (int I = 0; I < 4; ++I)
    EXPECT_TRUE(
        paretoInsert(F, L{10 + I, 10.0 - I}, /*MaxFrontSize=*/3).Inserted);
  // The 4th insert overflows the cap; the middle label goes, the
  // fastest and the cheapest stay.
  ASSERT_EQ(F.size(), 3u);
  EXPECT_EQ(F.front().Finish, 10);
  EXPECT_EQ(F.back().Finish, 13);
  EXPECT_DOUBLE_EQ(F.front().Cost, 10.0);
  EXPECT_DOUBLE_EQ(F.back().Cost, 7.0);
}

TEST(ParetoInsert, CapEvictionIsReported) {
  std::vector<L> F;
  EXPECT_FALSE(paretoInsert(F, L{1, 3.0}, 2).EvictedForCap);
  EXPECT_FALSE(paretoInsert(F, L{2, 2.0}, 2).EvictedForCap);
  ParetoInsertOutcome O = paretoInsert(F, L{3, 1.0}, 2);
  EXPECT_TRUE(O.Inserted);
  EXPECT_TRUE(O.EvictedForCap);
  EXPECT_EQ(F.size(), 2u);
}

TEST(ParetoInsert, FrontInvariantHoldsUnderRandomInserts) {
  Prng Rng(7);
  for (int Round = 0; Round < 50; ++Round) {
    std::vector<L> F;
    for (int I = 0; I < 200; ++I) {
      L New{static_cast<int64_t>(Rng.uniformInt(0, 30)),
            static_cast<double>(Rng.uniformInt(0, 30))};
      paretoInsert(F, New, 8);
      ASSERT_LE(F.size(), 8u);
      for (size_t K = 1; K < F.size(); ++K) {
        // Sorted by Finish ascending, Cost strictly descending: no
        // label dominates another.
        ASSERT_LT(F[K - 1].Finish, F[K].Finish);
        ASSERT_GT(F[K - 1].Cost, F[K].Cost);
      }
    }
  }
}

TEST(ParetoInsert, MatchesTheLinearReferenceExactly) {
  // The fast path (one rank count + neighbor dominance + suffix erase)
  // must keep the exact label sets of the full linear scan it replaced
  // — the tier-1 tests pin schedules built on these fronts. Half the
  // rounds draw costs on a half-unit grid, half on a grid of half the
  // cost epsilon, where nearly every comparison is an epsilon tie.
  Prng Rng(42);
  const size_t Caps[] = {1, 2, 3, 4, 5, 6, 7, 8, 16, SIZE_MAX};
  for (int Round = 0; Round < 200; ++Round) {
    std::vector<L> Fast;
    std::vector<L> Ref;
    size_t Cap = Caps[Rng.index(std::size(Caps))];
    const double Step = Round % 2 ? CostEpsilon / 2 : 0.5;
    for (int I = 0; I < 120; ++I) {
      L New{static_cast<int64_t>(Rng.uniformInt(0, 20)),
            1.0 + static_cast<double>(Rng.uniformInt(0, 20)) * Step};
      bool InsertedFast = paretoInsert(Fast, New, Cap).Inserted;
      bool InsertedRef = referenceInsert(Ref, New, Cap);
      ASSERT_EQ(InsertedFast, InsertedRef)
          << "label (" << New.Finish << ", " << New.Cost << ")";
      ASSERT_EQ(Fast.size(), Ref.size());
      for (size_t K = 0; K < Fast.size(); ++K)
        ASSERT_EQ(Fast[K], Ref[K]);
    }
  }
}

TEST(ParetoDominated, PredictsRejectionAtEveryLaterFinish) {
  // The chain DP asks paretoDominated(Front, Ready + Dur, Cost) before it
  // pays for a start time. A "dominated" answer must mean paretoInsert
  // rejects that cost at any finish from the bound on, and leaves the
  // front exactly as it was.
  Prng Rng(11);
  size_t Dominated = 0;
  size_t Open = 0;
  auto RandomCost = [&Rng] {
    // Half-unit steps, nudged within the epsilon to exercise cost ties.
    return static_cast<double>(Rng.uniformInt(0, 20)) / 2.0 +
           static_cast<double>(Rng.uniformInt(-1, 1)) * CostEpsilon / 2;
  };
  for (int Round = 0; Round < 100; ++Round) {
    std::vector<L> Front;
    size_t Cap = 2 + static_cast<size_t>(Rng.uniformInt(0, 6));
    for (int I = 0; I < 60; ++I) {
      int64_t Bound = static_cast<int64_t>(Rng.uniformInt(0, 20));
      double Cost = RandomCost();
      // The helper's answer is the linear scan's: some label finishes by
      // the bound at no more cost.
      bool Linear = false;
      for (const L &E : Front)
        Linear = Linear || (E.Finish <= Bound && costLeq(E.Cost, Cost));
      ASSERT_EQ(paretoDominated(Front, Bound, Cost), Linear);
      if (!Linear) {
        ++Open;
      } else {
        ++Dominated;
        for (int64_t Finish = Bound; Finish <= 22; ++Finish) {
          std::vector<L> After = Front;
          ASSERT_FALSE(paretoInsert(After, L{Finish, Cost}, Cap).Inserted)
              << "label (" << Finish << ", " << Cost << ")";
          ASSERT_EQ(After, Front);
        }
      }
      paretoInsert(Front, L{static_cast<int64_t>(Rng.uniformInt(0, 20)),
                            RandomCost()},
                   Cap);
    }
  }
  // Both answers occur, so the property is not vacuous.
  EXPECT_GT(Dominated, 0u);
  EXPECT_GT(Open, 0u);
}

TEST(CostNearTie, CoversDistinctCostsWithinTwoEpsilons) {
  EXPECT_FALSE(costNearTie(1.0, 1.0));
  EXPECT_TRUE(costNearTie(1.0, 1.0 + CostEpsilon / 4));
  EXPECT_TRUE(costNearTie(1.0 + CostEpsilon, 1.0));
  EXPECT_TRUE(costNearTie(1.0, 1.0 + 2 * CostEpsilon));
  EXPECT_FALSE(costNearTie(1.0, 1.0 + 3 * CostEpsilon));
  EXPECT_FALSE(costNearTie(1.0, 1.5));
}

TEST(ParetoExtremes, TrackTheFullFrontsExtremesAwayFromNearTies) {
  // A front that keeps only its extremes, driven as the chain DP drives
  // its last position: skip a candidate the extremes dominate, stop at
  // one whose cost nearly ties the cheapest label, skip one that
  // `paretoExtremesKept` says changes nothing, insert the rest. After
  // every candidate it must hold the first and the last label of the
  // full front built from the same candidates under any cap, and a
  // skipped candidate must leave those two as they were.
  Prng Rng(23);
  const size_t Caps[] = {2, 3, 8, 16, SIZE_MAX};
  size_t Kept = 0, Changed = 0, Stopped = 0;
  for (int Round = 0; Round < 400; ++Round) {
    std::vector<L> Full;
    std::vector<L> Extremes;
    size_t Cap = Caps[Rng.index(std::size(Caps))];
    const double Step = Round % 2 ? CostEpsilon / 2 : 0.5;
    for (int I = 0; I < 60; ++I) {
      int64_t Bound = Rng.uniformInt(0, 20);
      L New{Bound + Rng.uniformInt(0, 2),
            1.0 + static_cast<double>(Rng.uniformInt(0, 20)) * Step};
      std::vector<L> Before = Full;
      paretoInsert(Full, New, Cap);
      if (paretoDominated(Extremes, New.Finish, New.Cost)) {
        ASSERT_EQ(Full, Before);
        continue;
      }
      if (!Extremes.empty() && costNearTie(New.Cost, Extremes.back().Cost)) {
        ++Stopped;
        break;
      }
      if (paretoExtremesKept(Extremes, Bound, New.Cost)) {
        ++Kept;
        ASSERT_EQ(Full.front(), Before.front());
        ASSERT_EQ(Full.back(), Before.back());
        continue;
      }
      Changed += paretoExtremesInsert(Extremes, New);
      ASSERT_EQ(Extremes.front(), Full.front());
      ASSERT_EQ(Extremes.back(), Full.back());
      ASSERT_EQ(Extremes.size(), Full.size() == 1 ? 1u : 2u);
    }
  }
  // Every branch ran.
  EXPECT_GT(Kept, 0u);
  EXPECT_GT(Changed, 0u);
  EXPECT_GT(Stopped, 0u);
}

/// A label that remembers which candidate it came from.
struct IdL {
  int64_t Finish;
  double Cost;
  int Id;
};

/// A candidate of one last-position front: its label and the lower bound
/// on its finish that the chain DP knows before an earliest-fit query.
struct Cand {
  int64_t Bound;
  IdL Label;
};

/// What both picks take from a row of fronts, folded as the chain DP's
/// `pick` folds them: the front and the candidate, Cost pick first.
std::array<std::pair<int, int>, 2> foldRow(
    const std::vector<std::vector<IdL>> &Row) {
  ParetoPick<int64_t> Cost{true}, Time{false};
  std::array<std::pair<int, int>, 2> Picks{{{-1, -1}, {-1, -1}}};
  for (size_t Node = 0; Node < Row.size(); ++Node)
    for (const IdL &E : Row[Node]) {
      if (Cost.fold(E.Finish, E.Cost))
        Picks[0] = {static_cast<int>(Node), E.Id};
      if (Time.fold(E.Finish, E.Cost))
        Picks[1] = {static_cast<int>(Node), E.Id};
    }
  return Picks;
}

/// Builds a row of two-label fronts as the chain DP builds its last
/// position: each front skips the candidates that the fronts before it
/// beat for both picks, and the row stops (returns false) at a near tie,
/// or when a front skipped a candidate and one costs within
/// `costInTieBand` of the Cost pick's best.
bool buildRowWithSkip(const std::vector<std::vector<Cand>> &Streams,
                      std::vector<std::vector<IdL>> &Row, size_t &Skips) {
  ParetoPick<int64_t> TimeBest{false}, CostBest{true};
  for (size_t Node = 0; Node < Streams.size(); ++Node) {
    std::vector<IdL> &Front = Row[Node];
    bool Skipped = false, Band = false;
    for (const Cand &C : Streams[Node]) {
      double Cost = C.Label.Cost;
      if (paretoPicksBeat(TimeBest, CostBest, C.Bound, Cost)) {
        Skipped = true;
        ++Skips;
        continue;
      }
      Band = Band || (TimeBest.Found && costInTieBand(Cost, CostBest.Cost));
      if (paretoDominated(Front, C.Bound, Cost))
        continue;
      if (!Front.empty() && costNearTie(Cost, Front.back().Cost))
        return false;
      if (paretoExtremesKept(Front, C.Bound, Cost))
        continue;
      if (paretoPicksBeat(TimeBest, CostBest, C.Label.Finish, Cost)) {
        Skipped = true;
        ++Skips;
        continue;
      }
      if (!paretoDominated(Front, C.Label.Finish, Cost))
        paretoExtremesInsert(Front, C.Label);
    }
    if (Skipped && Band)
      return false;
    for (const IdL &E : Front) {
      TimeBest.fold(E.Finish, E.Cost);
      CostBest.fold(E.Finish, E.Cost);
    }
  }
  return true;
}

TEST(ParetoPick, SkippingWhatEarlierFrontsBeatKeepsBothPicks) {
  // Rows of last-position fronts fed random candidate streams: costs on
  // a CostEpsilon / 4 grid (so near ties and the band are common) or
  // plainly apart, finishes that often tie across fronts, and fronts
  // that repeat an earlier one's stream at a nudged cost, as nodes with
  // one timeline do. Both picks over full fronts under every cap must
  // equal those over two-label fronts that skip what the fronts before
  // them beat, unless that row stopped and was rebuilt with full fronts.
  Prng Rng(31);
  const size_t Caps[] = {2, 3, 4, 8, SIZE_MAX};
  size_t Skips = 0, Stopped = 0, Compared = 0;
  for (int Round = 0; Round < 100000; ++Round) {
    const size_t N = static_cast<size_t>(Rng.uniformInt(2, 6));
    const double Step = Rng.bernoulli(0.8) ? CostEpsilon / 4 : 0.25;
    std::vector<std::vector<Cand>> Streams(N);
    int Id = 0;
    for (size_t Node = 0; Node < N; ++Node) {
      if (Node > 0 && Rng.bernoulli(0.3)) {
        const std::vector<Cand> &Like = Streams[Rng.index(Node)];
        double Nudge = static_cast<double>(Rng.uniformInt(0, 12)) * Step;
        for (const Cand &C : Like)
          Streams[Node].push_back(
              {C.Bound, {C.Label.Finish, C.Label.Cost + Nudge, Id++}});
        continue;
      }
      // Runs of finishes that rise as costs fall, as candidates arrive
      // from the labels of one previous front.
      for (int64_t Run = Rng.uniformInt(0, 4); Run > 0; --Run) {
        int64_t Finish = Rng.uniformInt(0, 30);
        double Cost = 1.0 + static_cast<double>(Rng.uniformInt(0, 48)) * Step;
        for (int64_t I = Rng.uniformInt(1, 4); I > 0; --I) {
          int64_t Bound = std::max<int64_t>(0, Finish - Rng.uniformInt(0, 2));
          Streams[Node].push_back({Bound, {Finish, Cost, Id++}});
          Finish += Rng.uniformInt(0, 4);
          Cost -= static_cast<double>(Rng.uniformInt(1, 6)) * Step;
        }
      }
    }
    size_t Cap = Caps[Rng.index(std::size(Caps))];
    std::vector<std::vector<IdL>> Full(N);
    for (size_t Node = 0; Node < N; ++Node)
      for (const Cand &C : Streams[Node])
        paretoInsert(Full[Node], C.Label, Cap);
    std::vector<std::vector<IdL>> Skipping(N);
    if (!buildRowWithSkip(Streams, Skipping, Skips)) {
      ++Stopped; // Rebuilt with full fronts: the picks are the reference.
      continue;
    }
    ++Compared;
    ASSERT_EQ(foldRow(Skipping), foldRow(Full)) << "round " << Round;
  }
  // Not vacuous: candidates were skipped, and rows both stopped and ran
  // to the end.
  EXPECT_GT(Skips, 0u);
  EXPECT_GT(Stopped, 0u);
  EXPECT_GT(Compared, 0u);
}

TEST(ParetoInsert, WorksOnSmallVectorFronts) {
  // The allocator's front type: inline storage, raw-pointer iterators.
  SmallVector<L, 4> F;
  for (int I = 0; I < 6; ++I)
    EXPECT_TRUE(paretoInsert(F, L{10 + I, 10.0 - I}, 8).Inserted);
  EXPECT_EQ(F.size(), 6u);
  EXPECT_FALSE(F.inlined()); // Grew past the inline capacity.
  EXPECT_FALSE(paretoInsert(F, L{20, 10.0}, 8).Inserted);
  EXPECT_TRUE(paretoInsert(F, L{9, 0.5}, 8).Inserted);
  ASSERT_EQ(F.size(), 1u);
  EXPECT_EQ(F[0], (L{9, 0.5}));
}

TEST(ParetoInsert, CappedSmallVectorFrontNeverSpillsToTheHeap) {
  // The allocator's fronts hold `SmallVector<Label, 8>` at the default
  // cap of 8. Mutually non-dominated labels fill the front and then
  // force cap evictions; the front must never hold a ninth label, even
  // between the insert and the eviction, so it stays inline. Each step
  // still keeps exactly the reference's survivors.
  Prng Rng(19);
  SmallVector<L, 8> F;
  std::vector<L> Ref;
  size_t Evicted = 0;
  for (int I = 0; I < 20; ++I) {
    // Cost falls as Finish grows: no two distinct labels dominate.
    int64_t Finish = Rng.uniformInt(0, 999);
    L New{Finish, 2000.0 - static_cast<double>(Finish)};
    Evicted += paretoInsert(F, New, 8).EvictedForCap;
    referenceInsert(Ref, New, 8);
    ASSERT_TRUE(F.inlined()) << "insert " << I;
    ASSERT_EQ(F.size(), Ref.size());
    for (size_t K = 0; K < F.size(); ++K)
      ASSERT_EQ(F[K], Ref[K]);
  }
  EXPECT_EQ(F.size(), 8u);
  EXPECT_GT(Evicted, 0u); // The cap did bind.
}

TEST(SmallVector, InlineThenHeapGrowthPreservesContents) {
  SmallVector<int, 4> V;
  EXPECT_TRUE(V.empty());
  EXPECT_TRUE(V.inlined());
  for (int I = 0; I < 4; ++I)
    V.push_back(I);
  EXPECT_TRUE(V.inlined());
  V.push_back(4); // Spills to the heap.
  EXPECT_FALSE(V.inlined());
  ASSERT_EQ(V.size(), 5u);
  for (int I = 0; I < 5; ++I)
    EXPECT_EQ(V[static_cast<size_t>(I)], I);
}

TEST(SmallVector, InsertAndEraseShiftLikeVector) {
  SmallVector<int, 8> V;
  for (int I : {1, 2, 4, 5})
    V.push_back(I);
  V.insert(V.begin() + 2, 3);
  ASSERT_EQ(V.size(), 5u);
  for (int I = 0; I < 5; ++I)
    EXPECT_EQ(V[static_cast<size_t>(I)], I + 1);
  V.erase(V.begin() + 1, V.begin() + 3); // Drops 2, 3.
  ASSERT_EQ(V.size(), 3u);
  EXPECT_EQ(V[0], 1);
  EXPECT_EQ(V[1], 4);
  EXPECT_EQ(V[2], 5);
  V.erase(V.begin());
  ASSERT_EQ(V.size(), 2u);
  EXPECT_EQ(V[0], 4);
  V.clear();
  EXPECT_TRUE(V.empty());
}

TEST(SmallVector, CopyIsIndependent) {
  SmallVector<int, 2> A;
  for (int I = 0; I < 5; ++I)
    A.push_back(I);
  SmallVector<int, 2> B(A);
  B.push_back(5);
  EXPECT_EQ(A.size(), 5u);
  EXPECT_EQ(B.size(), 6u);
  A = B;
  ASSERT_EQ(A.size(), 6u);
  EXPECT_EQ(A[5], 5);
}

} // namespace

//===-- tests/test_timeline.cpp - Timeline unit tests ---------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "resource/Timeline.h"
#include "support/Prng.h"

#include <gtest/gtest.h>

#include <span>
#include <vector>

using namespace cws;

TEST(Timeline, FreshIsFree) {
  Timeline T;
  EXPECT_TRUE(T.isFree(0, 100));
  EXPECT_EQ(T.earliestFit(0, 10), 0);
  EXPECT_EQ(T.busyTicks(0, 100), 0);
}

TEST(Timeline, ReserveBlocksOverlap) {
  Timeline T;
  EXPECT_TRUE(T.reserve(10, 20, 1));
  EXPECT_FALSE(T.reserve(15, 25, 2));
  EXPECT_FALSE(T.reserve(5, 11, 2));
  EXPECT_FALSE(T.reserve(10, 20, 2));
  EXPECT_TRUE(T.reserve(20, 30, 2)); // Half-open: touching is fine.
  EXPECT_TRUE(T.reserve(5, 10, 3));
}

TEST(Timeline, IsFreeHalfOpenSemantics) {
  Timeline T;
  T.reserve(10, 20, 1);
  EXPECT_TRUE(T.isFree(0, 10));
  EXPECT_TRUE(T.isFree(20, 30));
  EXPECT_FALSE(T.isFree(19, 21));
  EXPECT_FALSE(T.isFree(9, 11));
  EXPECT_TRUE(T.isFree(5, 5)); // Empty interval.
}

TEST(Timeline, EarliestFitSkipsBusy) {
  Timeline T;
  T.reserve(10, 20, 1);
  T.reserve(25, 30, 1);
  EXPECT_EQ(T.earliestFit(0, 10), 0);
  EXPECT_EQ(T.earliestFit(0, 11), 30);
  EXPECT_EQ(T.earliestFit(12, 5), 20);
  EXPECT_EQ(T.earliestFit(12, 6), 30);
  EXPECT_EQ(T.earliestFit(40, 100), 40);
}

TEST(Timeline, EarliestFitExactGap) {
  Timeline T;
  T.reserve(0, 10, 1);
  T.reserve(15, 20, 1);
  EXPECT_EQ(T.earliestFit(0, 5), 10);
  EXPECT_EQ(T.earliestFit(0, 6), 20);
}

TEST(Timeline, FirstOverlapFindsBlocking) {
  Timeline T;
  T.reserve(10, 20, 7);
  const Interval *I = T.firstOverlap(15, 25);
  ASSERT_NE(I, nullptr);
  EXPECT_EQ(I->Owner, 7u);
  EXPECT_EQ(T.firstOverlap(0, 10), nullptr);
  EXPECT_EQ(T.firstOverlap(20, 30), nullptr);
}

TEST(Timeline, ReleaseOwnerRemovesAll) {
  Timeline T;
  T.reserve(0, 5, 1);
  T.reserve(5, 10, 2);
  T.reserve(10, 15, 1);
  EXPECT_EQ(T.releaseOwner(1), 2u);
  EXPECT_TRUE(T.isFree(0, 5));
  EXPECT_FALSE(T.isFree(5, 10));
  EXPECT_TRUE(T.isFree(10, 15));
  EXPECT_EQ(T.releaseOwner(1), 0u);
}

TEST(Timeline, ReleaseExactInterval) {
  Timeline T;
  T.reserve(0, 5, 1);
  T.reserve(10, 15, 1);
  EXPECT_FALSE(T.release(0, 5, 2));  // Wrong owner.
  EXPECT_FALSE(T.release(0, 4, 1));  // Wrong bounds.
  EXPECT_TRUE(T.release(0, 5, 1));
  EXPECT_TRUE(T.isFree(0, 5));
  EXPECT_FALSE(T.isFree(10, 15));
}

TEST(Timeline, IsFreeForIgnoresOwner) {
  Timeline T;
  T.reserve(10, 20, 5);
  T.reserve(30, 40, 6);
  EXPECT_TRUE(T.isFreeFor(10, 20, 5));
  EXPECT_FALSE(T.isFreeFor(10, 20, 6));
  EXPECT_FALSE(T.isFreeFor(15, 35, 5)); // Overlaps owner 6 too.
}

TEST(Timeline, BusyTicksAndUtilization) {
  Timeline T;
  T.reserve(10, 20, 1);
  T.reserve(30, 35, 2);
  EXPECT_EQ(T.busyTicks(0, 100), 15);
  EXPECT_EQ(T.busyTicks(15, 32), 7);
  EXPECT_DOUBLE_EQ(T.utilization(0, 100), 0.15);
  EXPECT_DOUBLE_EQ(T.utilization(50, 50), 0.0);
}

TEST(Timeline, IntervalsStaySorted) {
  Timeline T;
  T.reserve(50, 60, 1);
  T.reserve(10, 20, 1);
  T.reserve(30, 40, 1);
  const auto &I = T.intervals();
  ASSERT_EQ(I.size(), 3u);
  EXPECT_EQ(I[0].Begin, 10);
  EXPECT_EQ(I[1].Begin, 30);
  EXPECT_EQ(I[2].Begin, 50);
}

TEST(Timeline, ClearEmpties) {
  Timeline T;
  T.reserve(0, 5, 1);
  T.clear();
  EXPECT_TRUE(T.isFree(0, 1000));
}

/// Random-operation invariants: intervals remain sorted, disjoint, and
/// earliestFit results are actually free.
class TimelineFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TimelineFuzz, InvariantsHoldUnderRandomOps) {
  Prng Rng(GetParam());
  Timeline T;
  for (int Op = 0; Op < 400; ++Op) {
    Tick B = Rng.uniformInt(0, 500);
    Tick Len = Rng.uniformInt(1, 30);
    switch (Rng.index(3)) {
    case 0:
      T.reserve(B, B + Len, 1 + Rng.index(4));
      break;
    case 1:
      T.releaseOwner(1 + Rng.index(4));
      break;
    case 2: {
      Tick Fit = T.earliestFit(B, Len);
      EXPECT_GE(Fit, B);
      EXPECT_TRUE(T.isFree(Fit, Fit + Len));
      break;
    }
    }
    const auto &I = T.intervals();
    for (size_t K = 1; K < I.size(); ++K) {
      EXPECT_LE(I[K - 1].End, I[K].Begin);
      EXPECT_LT(I[K].Begin, I[K].End);
    }
  }
}

TEST(Timeline, OverlappingEqualsTheFullScanFilter) {
  // The bounded range must hold exactly the intervals a scan over every
  // reservation keeps (End > B and Begin < E), in timeline order, for
  // any query: empty and inverted ones, and ones before, inside and
  // past the reservations.
  Prng Rng(2024);
  size_t NonEmpty = 0;
  for (int Trial = 0; Trial < 300; ++Trial) {
    Timeline T;
    for (int64_t I = Rng.uniformInt(0, 40); I > 0; --I) {
      Tick Begin = Rng.uniformInt(0, 200);
      T.reserve(Begin, Begin + Rng.uniformInt(1, 12), 1 + Rng.index(3));
    }
    const std::vector<Interval> &All = T.intervals();
    for (int Query = 0; Query < 40; ++Query) {
      Tick B = Rng.uniformInt(-10, 220);
      Tick E = B + Rng.uniformInt(-5, 30);
      std::vector<const Interval *> Want;
      for (const Interval &I : All)
        if (I.End > B && I.Begin < E)
          Want.push_back(&I);
      std::span<const Interval> Got = T.overlapping(B, E);
      ASSERT_EQ(Got.size(), Want.size()) << "[" << B << ", " << E << ")";
      for (size_t K = 0; K < Got.size(); ++K)
        EXPECT_EQ(&Got[K], Want[K]);
      NonEmpty += !Got.empty();
    }
  }
  EXPECT_GT(NonEmpty, 1000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimelineFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 77u, 1234u));

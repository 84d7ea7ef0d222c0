//===-- tests/test_sim.cpp - Event queue and simulator tests --------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "sim/EventQueue.h"
#include "sim/Simulator.h"
#include "sim/Time.h"
#include "support/Prng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

using namespace cws;

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue Q;
  std::vector<int> Order;
  Q.schedule(30, [&](Tick) { Order.push_back(3); });
  Q.schedule(10, [&](Tick) { Order.push_back(1); });
  Q.schedule(20, [&](Tick) { Order.push_back(2); });
  while (!Q.empty())
    Q.runNext();
  EXPECT_EQ(Order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTickFiresInSubmissionOrder) {
  EventQueue Q;
  std::vector<int> Order;
  for (int I = 0; I < 5; ++I)
    Q.schedule(7, [&Order, I](Tick) { Order.push_back(I); });
  while (!Q.empty())
    Q.runNext();
  EXPECT_EQ(Order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, NextTimeOnEmpty) {
  EventQueue Q;
  EXPECT_EQ(Q.nextTime(), TickMax);
}

TEST(EventQueue, RunNextReportsTime) {
  EventQueue Q;
  Q.schedule(17, [](Tick At) { EXPECT_EQ(At, 17); });
  EXPECT_EQ(Q.runNext(), 17);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue Q;
  int Count = 0;
  Q.schedule(1, [&](Tick) {
    ++Count;
    Q.schedule(2, [&](Tick) { ++Count; });
  });
  while (!Q.empty())
    Q.runNext();
  EXPECT_EQ(Count, 2);
}

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator Sim;
  Tick Seen = -1;
  Sim.at(12, [&](Tick Now) { Seen = Now; });
  Sim.run();
  EXPECT_EQ(Seen, 12);
  EXPECT_EQ(Sim.now(), 12);
}

TEST(Simulator, AfterIsRelative) {
  Simulator Sim;
  std::vector<Tick> Times;
  Sim.at(10, [&](Tick) {
    Sim.after(5, [&](Tick Now) { Times.push_back(Now); });
  });
  Sim.run();
  EXPECT_EQ(Times, (std::vector<Tick>{15}));
}

TEST(Simulator, PastEventsClampToNow) {
  Simulator Sim;
  Sim.at(10, [&](Tick) {
    Sim.at(3, [&](Tick Now) { EXPECT_EQ(Now, 10); });
  });
  EXPECT_EQ(Sim.run(), 2u);
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator Sim;
  int Fired = 0;
  Sim.at(5, [&](Tick) { ++Fired; });
  Sim.at(50, [&](Tick) { ++Fired; });
  EXPECT_EQ(Sim.run(20), 1u);
  EXPECT_EQ(Fired, 1);
  EXPECT_EQ(Sim.run(), 1u);
  EXPECT_EQ(Fired, 2);
}

TEST(Simulator, PendingCount) {
  Simulator Sim;
  Sim.at(1, [](Tick) {});
  Sim.at(2, [](Tick) {});
  EXPECT_EQ(Sim.pending(), 2u);
  Sim.run();
  EXPECT_EQ(Sim.pending(), 0u);
}

TEST(Time, CeilTicksEqualsStdCeil) {
  // ceilTicks replaces std::ceil wherever a computed time becomes whole
  // ticks, so it must agree with it everywhere a tick can reach.
  std::vector<double> Values;
  for (int64_t K = -1000; K <= 1000; ++K) {
    auto X = static_cast<double>(K);
    // Integers, and values within 1e-9 of one on either side.
    for (double D : {0.0, 1e-9, -1e-9, 1e-10, -1e-10, 5e-10, -5e-10})
      Values.push_back(X + D);
    Values.push_back(std::nextafter(X, -1e300));
    Values.push_back(std::nextafter(X, 1e300));
  }
  // The estimation table: reference times over the perfs the grids use,
  // with the tolerance execTicks subtracts.
  for (double Perf : {1.0, 1.0 / 2.0, 1.0 / 3.0, 1.0 / 4.0, 0.8, 0.4, 0.33,
                      0.25, 2.0 / 3.0}) {
    for (int64_t Ref = 0; Ref <= 400; ++Ref) {
      double Exact = static_cast<double>(Ref) / Perf;
      Values.push_back(Exact);
      Values.push_back(Exact - 1e-9);
    }
  }
  // Where doubles stop holding fractions.
  const double Two53 = 9007199254740992.0;
  for (double X : {Two53 - 1, Two53, Two53 + 1, Two53 + 2, -Two53 + 1,
                   -Two53, -Two53 - 1, Two53 / 2 + 0.5, -Two53 / 2 - 0.5,
                   4.0e18, -4.0e18})
    Values.push_back(X);
  // Random doubles over several magnitudes.
  Prng Rng(53);
  for (int I = 0; I < 100000; ++I) {
    double Scale = std::ldexp(1.0, static_cast<int>(Rng.uniformInt(-4, 60)));
    Values.push_back(Rng.uniformReal(-Scale, Scale));
  }
  for (double X : Values)
    ASSERT_EQ(ceilTicks(X), static_cast<Tick>(std::ceil(X))) << X;
  static_assert(ceilTicks(2.5) == 3 && ceilTicks(-2.5) == -2 &&
                ceilTicks(3.0) == 3 && ceilTicks(-0.5) == 0);
}

//===-- tests/test_invalidation.cpp - Invalidation pass tests -------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
//
// The job managers' invalidation pass: committed jobs are never
// invalidated, and the pass re-validates only strategies still
// negotiating (its instruments skip environment changes that find
// none).
//
//===----------------------------------------------------------------------===//

#include "flow/BackgroundLoad.h"
#include "flow/JobManager.h"
#include "flow/Metascheduler.h"
#include "obs/Journal.h"
#include "obs/Metrics.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <string>

using namespace cws;

namespace {

struct FlowFixture {
  Grid Env = Grid::makeFig2();
  Network Net;
  Economy Econ;
  unsigned User;
  StrategyConfig Config;
  Metascheduler Meta{Env, Net, Econ, Config};
  JobManager Manager{Meta, 0};

  FlowFixture() { User = Econ.addUser(1e9); }
};

class InvalidationTest : public ::testing::Test {
protected:
  void SetUp() override { obs::Journal::global().reset(); }
  void TearDown() override { obs::Journal::global().reset(); }
};

size_t countKind(const std::string &Jsonl, const std::string &Kind) {
  std::string Needle = "\"kind\":\"" + Kind + "\"";
  size_t N = 0;
  for (size_t At = Jsonl.find(Needle); At != std::string::npos;
       At = Jsonl.find(Needle, At + Needle.size()))
    ++N;
  return N;
}

} // namespace

//===----------------------------------------------------------------------===//
// Committed jobs survive environment changes (regression)
//===----------------------------------------------------------------------===//

TEST_F(InvalidationTest, CommittedJobIsNotInvalidatedByOverlappingChange) {
  FlowFixture F;
  Job J = makeFig2Job();
  J.setDeadline(60);
  ASSERT_TRUE(F.Manager.onArrival(J, 0));
  ASSERT_TRUE(F.Manager.onNegotiation(J.id(), 3).has_value());
  ASSERT_TRUE(F.Manager.stats()[0].Committed);
  ASSERT_FALSE(F.Manager.stats()[0].TtlClosed);

  // Background load floods every free slot of the window the strategy
  // planned in, overlapping (in time) the committed reservations.
  for (auto &N : F.Env.nodes())
    for (Tick T = 0; T < 60; ++T)
      N.timeline().reserve(T, T + 1, BackgroundOwner);

  obs::Counter &Invalidated =
      obs::Registry::global().counter("cws_jobs_invalidated_total");
  uint64_t Before = Invalidated.value();
  obs::Journal &Jn = obs::Journal::global();
  Jn.enable(256);
  F.Manager.onEnvironmentChange(5);
  Jn.disable();

  // The committed schedule's reservations are pinned: no invalidation
  // journal entry, no counter bump, and the TTL stays open until the
  // job completes.
  EXPECT_EQ(countKind(Jn.jsonl(), "invalidate"), 0u);
  EXPECT_EQ(Invalidated.value(), Before);
  EXPECT_FALSE(F.Manager.stats()[0].TtlClosed);

  F.Manager.onCompletion(J.id(), F.Manager.stats()[0].Completion);
  EXPECT_TRUE(F.Manager.stats()[0].TtlClosed);
}

//===----------------------------------------------------------------------===//
// Empty scans keep the size histogram honest
//===----------------------------------------------------------------------===//

TEST_F(InvalidationTest, EnvChangeWithNoOpenStrategiesSkipsInstruments) {
  FlowFixture F;
  obs::Registry &R = obs::Registry::global();
  obs::Counter &ScanJobs = R.counter("cws_env_scan_jobs_total");
  obs::Histogram &ScanSize = R.histogram(
      "cws_env_scan_size",
      {8.0, 32.0, 128.0, 512.0, 2048.0, 8192.0, 32768.0});

  // No jobs at all: the change must not observe a zero into the
  // histogram percentiles.
  uint64_t Jobs = ScanJobs.value(), Sizes = ScanSize.count();
  F.Manager.onEnvironmentChange(1);
  EXPECT_EQ(ScanJobs.value(), Jobs);
  EXPECT_EQ(ScanSize.count(), Sizes);

  // A negotiating job is re-validated: one job, one observation.
  Job J = makeFig2Job();
  ASSERT_TRUE(F.Manager.onArrival(J, 0));
  F.Manager.onEnvironmentChange(1);
  EXPECT_EQ(ScanJobs.value(), Jobs + 1);
  EXPECT_EQ(ScanSize.count(), Sizes + 1);

  // Once committed, its reservations are pinned and no change can
  // break it: the in-flight job is not re-validated at all.
  Tick Completion = *F.Manager.onNegotiation(J.id(), 2);
  ASSERT_FALSE(F.Manager.stats()[0].TtlClosed);
  Jobs = ScanJobs.value();
  Sizes = ScanSize.count();
  F.Manager.onEnvironmentChange(4);
  EXPECT_EQ(ScanJobs.value(), Jobs);
  EXPECT_EQ(ScanSize.count(), Sizes);

  // Nor after completion.
  F.Manager.onCompletion(J.id(), Completion);
  F.Manager.onEnvironmentChange(Completion + 1);
  EXPECT_EQ(ScanJobs.value(), Jobs);
  EXPECT_EQ(ScanSize.count(), Sizes);
}

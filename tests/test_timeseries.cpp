//===-- tests/test_timeseries.cpp - Sim-time telemetry tests --------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the sim-time telemetry sampler: byte-determinism of the
/// exported series from run to run, periodic cadence and
/// event coalescing, ring-overflow accounting, utilization bounds on a
/// real VO run, and the CSV / JSONL / trace-fragment export shapes.
///
//===----------------------------------------------------------------------===//

#include "flow/VirtualOrganization.h"
#include "obs/Metrics.h"
#include "obs/TimeSeries.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace cws;
using namespace cws::obs;

namespace {

class TimeSeriesTest : public ::testing::Test {
protected:
  void SetUp() override { TimeSeries::global().reset(); }
  void TearDown() override { TimeSeries::global().reset(); }
};

VoConfig smallConfig() {
  VoConfig Config;
  Config.JobCount = 25;
  return Config;
}

/// One sampled VO run through the global sampler; returns the CSV.
std::string sampledRun(TimeSeriesConfig Config = TimeSeriesConfig()) {
  TimeSeries &Ts = TimeSeries::global();
  Ts.reset();
  Ts.enable(Config);
  runVirtualOrganization(smallConfig(), StrategyKind::S1, /*Seed=*/7);
  Ts.disable();
  return Ts.csv();
}

TEST_F(TimeSeriesTest, CsvIsByteDeterministicRunToRun) {
  std::string First = sampledRun();
  EXPECT_EQ(First, sampledRun());
  EXPECT_EQ(First.rfind("seq,tick,reason,series,node,flow,value\n", 0), 0u)
      << First.substr(0, 120);
  // The run produced periodic frames and forced event frames.
  EXPECT_NE(First.find(",sample,"), std::string::npos);
  EXPECT_NE(First.find(",env.change,"), std::string::npos);
  EXPECT_NE(First.find(",run.end,"), std::string::npos);
}

TEST_F(TimeSeriesTest, UtilizationFractionsStayWithinBounds) {
  TimeSeries &Ts = TimeSeries::global();
  Ts.enable();
  runVirtualOrganization(smallConfig(), StrategyKind::S1, /*Seed=*/7);
  Ts.disable();
  std::vector<TimeSeriesFrame> Frames = Ts.snapshot();
  ASSERT_FALSE(Frames.empty());
  size_t FramesWithNodes = 0;
  for (const TimeSeriesFrame &F : Frames) {
    if (!F.Nodes.empty())
      ++FramesWithNodes;
    for (const NodeOccupancy &O : F.Nodes) {
      EXPECT_GE(O.Busy, 0.0);
      EXPECT_GE(O.Background, 0.0);
      EXPECT_GE(O.Reserved, 0.0);
      // Busy and background split one elapsed window between disjoint
      // owner ranges, so together they can never exceed it.
      EXPECT_LE(O.Busy + O.Background, 1.0 + 1e-9)
          << "frame " << F.Seq << " at " << F.At;
      EXPECT_LE(O.Reserved, 1.0 + 1e-9);
    }
  }
  EXPECT_GT(FramesWithNodes, 0u);
}

TEST_F(TimeSeriesTest, RingOverflowIsCountedNotSilent) {
  TimeSeriesConfig Config;
  Config.Capacity = 8;
  sampledRun(Config);
  TimeSeries &Ts = TimeSeries::global();
  EXPECT_GT(Ts.dropped(), 0u);
  std::vector<TimeSeriesFrame> Frames = Ts.snapshot();
  EXPECT_EQ(Frames.size(), 8u);
  EXPECT_EQ(Ts.recorded(), Ts.dropped() + Frames.size());
  // The survivors are the newest frames, in order, with their original
  // sequence numbers.
  for (size_t I = 1; I < Frames.size(); ++I)
    EXPECT_EQ(Frames[I].Seq, Frames[I - 1].Seq + 1);
  EXPECT_EQ(Frames.back().Seq, Ts.recorded() - 1);

  Registry R;
  publishTimeSeriesStats(R);
  std::string Text = R.prometheusText();
  EXPECT_NE(Text.find("cws_timeseries_frames_total " +
                      std::to_string(Ts.recorded()) + "\n"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("cws_timeseries_dropped " +
                      std::to_string(Ts.dropped()) + "\n"),
            std::string::npos)
      << Text;
}

TEST_F(TimeSeriesTest, PeriodicFramesFollowTheCadence) {
  TimeSeries Ts;
  TimeSeriesConfig Config;
  Config.SampleEvery = 10;
  Ts.enable(Config);
  Ts.addProbe("x", [] { return 1.0; });
  Ts.onTick(0);  // boundary 0
  Ts.onTick(3);  // below the next boundary (10)
  Ts.onTick(12); // first event at/after 10
  Ts.onTick(19); // below 20
  Ts.onTick(20); // boundary 20
  Ts.disable();
  std::vector<TimeSeriesFrame> Frames = Ts.snapshot();
  ASSERT_EQ(Frames.size(), 3u);
  EXPECT_EQ(Frames[0].At, 0);
  EXPECT_EQ(Frames[1].At, 12);
  EXPECT_EQ(Frames[2].At, 20);
  for (const TimeSeriesFrame &F : Frames)
    EXPECT_STREQ(F.Reason, "sample");
}

TEST_F(TimeSeriesTest, SameTickSameReasonEventsCoalesce) {
  TimeSeries Ts;
  Ts.enable();
  Ts.addProbe("x", [] { return 1.0; });
  Ts.sampleEvent(10, "commit");
  Ts.sampleEvent(10, "commit");     // coalesced into the frame above
  Ts.sampleEvent(10, "reallocate"); // same tick, new reason -> new frame
  Ts.sampleEvent(11, "commit");     // new tick -> new frame
  Ts.disable();
  std::vector<TimeSeriesFrame> Frames = Ts.snapshot();
  ASSERT_EQ(Frames.size(), 3u);
  EXPECT_STREQ(Frames[0].Reason, "commit");
  EXPECT_STREQ(Frames[1].Reason, "reallocate");
  EXPECT_EQ(Frames[2].At, 11);
}

TEST_F(TimeSeriesTest, DisabledSamplerRecordsNothing) {
  TimeSeries Ts;
  Ts.onTick(5);
  Ts.sampleEvent(5, "commit");
  Ts.addOccupancySlice(0, 0, 10, "job", 1000);
  EXPECT_EQ(Ts.recorded(), 0u);
  EXPECT_EQ(Ts.slicesRecorded(), 0u);
  EXPECT_FALSE(Ts.enabled());
}

TEST_F(TimeSeriesTest, CsvRowsCoverMetricsNodesAndFlows) {
  TimeSeries Ts;
  Ts.enable();
  Ts.addProbe("jobs", [] { return 2.0; });
  Ts.setFlowProvider({"S1"},
                     [] { return std::vector<FlowSample>{{3, 1}}; });
  Ts.setOccupancyProvider([](Tick, Tick) {
    return std::vector<NodeOccupancy>{{0.25, 0.5, 0.125}};
  });
  Ts.sampleEvent(5, "commit");
  Ts.disable();
  // Export must survive the providers being dropped at run end.
  Ts.clearProviders();
  std::string Csv = Ts.csv();
  EXPECT_NE(Csv.find("0,5,commit,jobs,,,2\n"), std::string::npos) << Csv;
  EXPECT_NE(Csv.find("0,5,commit,util_busy,0,,0.25\n"), std::string::npos)
      << Csv;
  EXPECT_NE(Csv.find("0,5,commit,util_background,0,,0.5\n"),
            std::string::npos)
      << Csv;
  EXPECT_NE(Csv.find("0,5,commit,util_reserved,0,,0.125\n"),
            std::string::npos)
      << Csv;
  EXPECT_NE(Csv.find("0,5,commit,queued,,S1,3\n"), std::string::npos)
      << Csv;
  EXPECT_NE(Csv.find("0,5,commit,in_flight,,S1,1\n"), std::string::npos)
      << Csv;
}

TEST_F(TimeSeriesTest, ChromeFragmentCarriesCounterAndOccupancyTracks) {
  TimeSeries Ts;
  Ts.enable();
  Ts.addProbe("jobs", [] { return 2.0; });
  Ts.sampleEvent(5, "commit");
  Ts.addOccupancySlice(3, 10, 40, "background", 1);
  Ts.disable();
  std::string Extra = Ts.chromeTraceEvents();
  // Counter sample on the sim-time process, occupancy as a complete
  // event on the node's track.
  EXPECT_NE(Extra.find("\"ph\":\"C\""), std::string::npos) << Extra;
  EXPECT_NE(Extra.find("\"pid\":2"), std::string::npos) << Extra;
  EXPECT_NE(Extra.find("sim-time (ticks)"), std::string::npos) << Extra;
  EXPECT_NE(Extra.find("\"ph\":\"X\""), std::string::npos) << Extra;
  EXPECT_NE(Extra.find("\"name\":\"background\""), std::string::npos)
      << Extra;
  EXPECT_NE(Extra.find("\"dur\":30"), std::string::npos) << Extra;
  // A fragment, not a document: no surrounding brackets.
  EXPECT_NE(Extra.front(), '[');
  EXPECT_NE(Extra.back(), ']');
}

} // namespace

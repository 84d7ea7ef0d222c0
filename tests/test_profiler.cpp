//===-- tests/test_profiler.cpp - Phase profiler tests --------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
//
// The hierarchical phase profiler, fed by `obs::Span`: nesting and
// self-time accounting, work summed over repeated spans, one phase per
// name whatever its address, the disabled fast path, reset, the JSON
// round trip, metric publication, the Chrome-trace fragment, and
// run-to-run invariance of the counts and work counters a profiled VO
// run accumulates.
//
//===----------------------------------------------------------------------===//

#include "flow/VirtualOrganization.h"
#include "obs/Journal.h"
#include "obs/Metrics.h"
#include "obs/Profiler.h"
#include "obs/Trace.h"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <string>
#include <vector>

using namespace cws;
using namespace cws::obs;

namespace {

class ProfilerTest : public ::testing::Test {
protected:
  void SetUp() override { Profiler::global().reset(); }
  void TearDown() override { Profiler::global().reset(); }
};

/// Spins until at least \p Us microseconds of wall time passed, so
/// phase durations are reliably nonzero without sleeping.
void burn(int64_t Us) {
  auto Start = std::chrono::steady_clock::now();
  while (std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - Start)
             .count() < Us)
    ;
}

const PhaseStats *find(const std::vector<PhaseStats> &Phases,
                       const std::string &Name) {
  for (const PhaseStats &P : Phases)
    if (P.Name == Name)
      return &P;
  return nullptr;
}

TEST_F(ProfilerTest, NestingAndSelfTime) {
  Profiler &P = Profiler::global();
  P.enable();
  for (int I = 0; I < 3; ++I) {
    Span Outer("test", "outer");
    burn(200);
    {
      Span S("test", "inner");
      S.work("units", 2);
      burn(200);
    }
  }
  P.disable();

  std::vector<PhaseStats> S = P.snapshot();
  ASSERT_EQ(S.size(), 2u);
  // Sorted by name.
  EXPECT_EQ(S[0].Name, "inner");
  EXPECT_EQ(S[1].Name, "outer");
  const PhaseStats *Outer = find(S, "outer");
  const PhaseStats *Inner = find(S, "inner");
  ASSERT_NE(Outer, nullptr);
  ASSERT_NE(Inner, nullptr);
  EXPECT_EQ(Outer->Count, 3u);
  EXPECT_EQ(Inner->Count, 3u);
  // The outer total contains the inner total; its self time does not.
  EXPECT_GE(Outer->TotalUs, Inner->TotalUs);
  EXPECT_GE(Outer->SelfUs, 0.0);
  EXPECT_LE(Outer->SelfUs, Outer->TotalUs - Inner->TotalUs + 1.0);
  // The inner phase has no children: self == total.
  EXPECT_DOUBLE_EQ(Inner->SelfUs, Inner->TotalUs);
  EXPECT_GT(Outer->P50Us, 0.0);
  EXPECT_GE(Outer->P99Us, Outer->P50Us);
  // Work attached on each of the three closes adds up.
  const uint64_t *Units = Inner->work("units");
  ASSERT_NE(Units, nullptr);
  EXPECT_EQ(*Units, 3u * 2u);
  EXPECT_EQ(Outer->work("units"), nullptr);
}

TEST_F(ProfilerTest, OpenScopesAreNotCounted) {
  Profiler &P = Profiler::global();
  P.enable();
  {
    Span Closed("test", "closed");
  }
  Span Open("test", "still.open");
  std::vector<PhaseStats> S = P.snapshot();
  const PhaseStats *Closed = find(S, "closed");
  ASSERT_NE(Closed, nullptr);
  EXPECT_EQ(Closed->Count, 1u);
  const PhaseStats *StillOpen = find(S, "still.open");
  if (StillOpen != nullptr) {
    EXPECT_EQ(StillOpen->Count, 0u);
  }
}

TEST_F(ProfilerTest, DisabledPathRecordsNothing) {
  Profiler &P = Profiler::global();
  ASSERT_FALSE(P.enabled());
  for (int I = 0; I < 1000; ++I) {
    Span Ghost("test", "ghost");
    Span S("test", "ghost.child");
    S.work("units", 5);
  }
  EXPECT_TRUE(P.snapshot().empty());
  EXPECT_EQ(P.chromeTraceEvents(), "");
}

TEST_F(ProfilerTest, OneNameIsOnePhaseWhateverItsAddress) {
  // Two arrays are two objects, so their addresses differ: the address
  // lookup must still find the one phase of the name.
  static const char First[] = "same.name";
  static const char Second[] = "same.name";
  ASSERT_NE(static_cast<const void *>(First),
            static_cast<const void *>(Second));
  Profiler &P = Profiler::global();
  P.enable();
  {
    Span S("test", First);
    S.work("units", 1);
  }
  {
    Span S("test", Second);
    S.work("units", 2);
  }
  {
    Span S("test", First);
  }
  P.disable();
  std::vector<PhaseStats> S = P.snapshot();
  ASSERT_EQ(S.size(), 1u);
  EXPECT_EQ(S[0].Name, "same.name");
  EXPECT_EQ(S[0].Count, 3u);
  const uint64_t *Units = S[0].work("units");
  ASSERT_NE(Units, nullptr);
  EXPECT_EQ(*Units, 3u);
}

TEST_F(ProfilerTest, ResetForgetsPhasesUntilTheyCloseAgain) {
  // Accumulators outlive reset(): a phase closed only before it has
  // nothing to show, and one closed again starts from zero.
  Profiler &P = Profiler::global();
  P.enable();
  for (const char *Name : {"before.only", "both"}) {
    Span S("test", Name);
    S.work("units", 7);
  }
  P.reset();
  P.enable();
  {
    Span S("test", "both");
  }
  P.disable();
  std::vector<PhaseStats> S = P.snapshot();
  ASSERT_EQ(S.size(), 1u);
  EXPECT_EQ(S[0].Name, "both");
  EXPECT_EQ(S[0].Count, 1u);
  EXPECT_TRUE(S[0].Work.empty());
}

TEST_F(ProfilerTest, JsonRoundTrip) {
  // The second seed is above 2^53: it must survive as an exact integer.
  for (uint64_t Seed : {uint64_t(42), uint64_t(9007199254740993ull)}) {
    Profiler &P = Profiler::global();
    P.reset();
    RunProvenance Prov;
    Prov.Stamped = true;
    Prov.Seed = Seed;
    Prov.ConfigHash = "0x00000000deadbeef";
    Prov.ScenarioId = "test:profile";
    Prov.Shards = 2;
    Prov.Cli = "test_profiler";
    P.setProvenance(Prov);
    P.enable();
    {
      Span Outer("test", "round.trip");
      Span S("test", "round.trip.child");
      S.work("labels", 123);
    }
    P.disable();

    std::string Json = P.json();
    ParsedProfile Parsed;
    std::string Error;
    ASSERT_TRUE(parseProfileJson(Json, Parsed, Error)) << Error;
    EXPECT_TRUE(Parsed.Prov.Stamped);
    EXPECT_EQ(Parsed.Prov.Seed, Seed);
    EXPECT_EQ(Parsed.Prov.ConfigHash, "0x00000000deadbeef");
    EXPECT_EQ(Parsed.Prov.ScenarioId, "test:profile");
    EXPECT_EQ(Parsed.Prov.Shards, 2u);
    ASSERT_EQ(Parsed.Phases.size(), 2u);
    EXPECT_EQ(Parsed.Phases[0].Name, "round.trip");
    EXPECT_EQ(Parsed.Phases[1].Name, "round.trip.child");
    const uint64_t *Labels = Parsed.Phases[1].work("labels");
    ASSERT_NE(Labels, nullptr);
    EXPECT_EQ(*Labels, 123u);
    EXPECT_EQ(Parsed.Phases[0].Count, 1u);
    EXPECT_GE(Parsed.Phases[0].TotalUs, 0.0);
  }

  // Malformed input and schema mismatches are rejected.
  ParsedProfile Parsed;
  std::string Error;
  EXPECT_FALSE(parseProfileJson("not json", Parsed, Error));
  EXPECT_FALSE(parseProfileJson("{\"schema\":\"nope\",\"phases\":[]}",
                                Parsed, Error));
}

TEST_F(ProfilerTest, ChromeTraceFragment) {
  Profiler &P = Profiler::global();
  EXPECT_EQ(P.chromeTraceEvents(), "");
  P.enable();
  {
    Span S("test", "trace.me");
  }
  P.disable();
  std::string Fragment = P.chromeTraceEvents();
  ASSERT_FALSE(Fragment.empty());
  // A complete-event slice naming the phase; fragments are spliced into
  // a JSON array, so no enclosing brackets.
  EXPECT_NE(Fragment.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(Fragment.find("trace.me"), std::string::npos);
  EXPECT_EQ(Fragment.front(), '{');
  EXPECT_EQ(Fragment.back(), '}');
}

/// Counts and work counters of a profiled VO run, wall time stripped.
std::map<std::string, std::pair<uint64_t, std::vector<std::pair<
                                              std::string, uint64_t>>>>
profiledVoWork() {
  Profiler &P = Profiler::global();
  P.reset();
  P.enable();
  VoConfig Config;
  Config.JobCount = 24;
  Config.InterarrivalLo = 0;
  Config.InterarrivalHi = 4;
  runVirtualOrganization(Config, StrategyKind::S1, /*Seed=*/5);
  P.disable();
  std::map<std::string,
           std::pair<uint64_t, std::vector<std::pair<std::string, uint64_t>>>>
      Out;
  for (const PhaseStats &S : P.snapshot())
    Out[S.Name] = {S.Count, S.Work};
  P.reset();
  return Out;
}

TEST_F(ProfilerTest, VoRunCountsAreRunToRunInvariant) {
  auto Reference = profiledVoWork();
  ASSERT_FALSE(Reference.empty());
  EXPECT_TRUE(Reference.count("sim.tick"));
  EXPECT_TRUE(Reference.count("chain.dp"));
  EXPECT_TRUE(Reference.count("strategy.build"));
  // Regions inside a build that were timed for the tracer alone.
  EXPECT_TRUE(Reference.count("scheduleJob"));
  EXPECT_TRUE(Reference.count("extractCriticalWork"));
  EXPECT_EQ(profiledVoWork(), Reference);
}

} // namespace

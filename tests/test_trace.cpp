//===-- tests/test_trace.cpp - Span tracer tests --------------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "obs/Profiler.h"
#include "obs/Trace.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

using namespace cws;
using namespace cws::obs;

namespace {

/// Minimal JSON syntax checker: accepts a value, rejects trailing
/// garbage. Enough to prove the exporter never emits malformed output.
class JsonChecker {
public:
  explicit JsonChecker(const std::string &S) : S(S) {}

  bool valid() {
    Pos = 0;
    if (!value())
      return false;
    skipWs();
    return Pos == S.size();
  }

private:
  const std::string &S;
  size_t Pos = 0;

  void skipWs() {
    while (Pos < S.size() && (S[Pos] == ' ' || S[Pos] == '\t' ||
                              S[Pos] == '\n' || S[Pos] == '\r'))
      ++Pos;
  }
  bool consume(char C) {
    skipWs();
    if (Pos < S.size() && S[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }
  bool string() {
    skipWs();
    if (Pos >= S.size() || S[Pos] != '"')
      return false;
    ++Pos;
    while (Pos < S.size() && S[Pos] != '"') {
      if (S[Pos] == '\\') {
        ++Pos;
        if (Pos >= S.size())
          return false;
      }
      ++Pos;
    }
    if (Pos >= S.size())
      return false;
    ++Pos;
    return true;
  }
  bool number() {
    skipWs();
    size_t Start = Pos;
    if (Pos < S.size() && (S[Pos] == '-' || S[Pos] == '+'))
      ++Pos;
    while (Pos < S.size() &&
           ((S[Pos] >= '0' && S[Pos] <= '9') || S[Pos] == '.' ||
            S[Pos] == 'e' || S[Pos] == 'E' || S[Pos] == '-' ||
            S[Pos] == '+'))
      ++Pos;
    return Pos > Start;
  }
  bool value() {
    skipWs();
    if (Pos >= S.size())
      return false;
    char C = S[Pos];
    if (C == '{')
      return object();
    if (C == '[')
      return array();
    if (C == '"')
      return string();
    return number();
  }
  bool object() {
    if (!consume('{'))
      return false;
    if (consume('}'))
      return true;
    do {
      if (!string() || !consume(':') || !value())
        return false;
    } while (consume(','));
    return consume('}');
  }
  bool array() {
    if (!consume('['))
      return false;
    if (consume(']'))
      return true;
    do {
      if (!value())
        return false;
    } while (consume(','));
    return consume(']');
  }
};

class TraceTest : public ::testing::Test {
protected:
  void SetUp() override {
    Tracer::global().reset();
    Profiler::global().reset();
  }
  void TearDown() override {
    Tracer::global().reset();
    Profiler::global().reset();
  }
};

/// Opens and closes one span with two arguments and a work counter.
void runProbeSpan() {
  Span S("test", "probe", "input", 7);
  S.arg("output", 42);
  S.work("units", 3);
}

TEST_F(TraceTest, DisabledRecordsNothing) {
  Tracer &T = Tracer::global();
  EXPECT_FALSE(T.enabled());
  {
    Span S("test", "outer");
    T.instant("test", "tick");
  }
  EXPECT_EQ(T.recorded(), 0u);
  EXPECT_TRUE(T.snapshot().empty());
}

TEST_F(TraceTest, SpanNestingProducesMatchedBeginEnd) {
  Tracer &T = Tracer::global();
  T.enable(64);
  {
    Span Outer("test", "outer");
    {
      Span Inner("test", "inner");
      T.instant("test", "mark");
    }
  }
  T.disable();
  std::vector<TraceEvent> E = T.snapshot();
  ASSERT_EQ(E.size(), 5u);
  EXPECT_EQ(E[0].Phase, TracePhase::Begin);
  EXPECT_STREQ(E[0].Name, "outer");
  EXPECT_EQ(E[1].Phase, TracePhase::Begin);
  EXPECT_STREQ(E[1].Name, "inner");
  EXPECT_EQ(E[2].Phase, TracePhase::Instant);
  EXPECT_STREQ(E[2].Name, "mark");
  EXPECT_EQ(E[3].Phase, TracePhase::End);
  EXPECT_STREQ(E[3].Name, "inner");
  EXPECT_EQ(E[4].Phase, TracePhase::End);
  EXPECT_STREQ(E[4].Name, "outer");
  // Timestamps never run backwards and sequence numbers are dense.
  for (size_t I = 1; I < E.size(); ++I) {
    EXPECT_GE(E[I].TsMicros, E[I - 1].TsMicros);
    EXPECT_EQ(E[I].Seq, E[I - 1].Seq + 1);
  }
}

TEST_F(TraceTest, SpanArgsTravelWithTheEndEvent) {
  Tracer &T = Tracer::global();
  T.enable(16);
  {
    Span S("test", "work", "input", 7);
    S.arg("output", 42);
  }
  T.disable();
  std::vector<TraceEvent> E = T.snapshot();
  ASSERT_EQ(E.size(), 2u);
  EXPECT_EQ(E[0].ArgCount, 0u);
  ASSERT_EQ(E[1].ArgCount, 2u);
  EXPECT_STREQ(E[1].Args[0].Key, "input");
  EXPECT_EQ(E[1].Args[0].Value, 7);
  EXPECT_STREQ(E[1].Args[1].Key, "output");
  EXPECT_EQ(E[1].Args[1].Value, 42);
}

TEST_F(TraceTest, OneSpanFeedsTheTracerAndTheProfiler) {
  Tracer &T = Tracer::global();
  Profiler &P = Profiler::global();
  T.enable(16);
  P.enable();
  runProbeSpan();
  T.disable();
  P.disable();
  std::vector<TraceEvent> E = T.snapshot();
  ASSERT_EQ(E.size(), 2u);
  EXPECT_EQ(E[0].Phase, TracePhase::Begin);
  EXPECT_EQ(E[1].Phase, TracePhase::End);
  EXPECT_STREQ(E[1].Name, "probe");
  ASSERT_EQ(E[1].ArgCount, 2u);
  EXPECT_STREQ(E[1].Args[0].Key, "input");
  EXPECT_EQ(E[1].Args[0].Value, 7);
  EXPECT_STREQ(E[1].Args[1].Key, "output");
  EXPECT_EQ(E[1].Args[1].Value, 42);
  std::vector<PhaseStats> Phases = P.snapshot();
  ASSERT_EQ(Phases.size(), 1u);
  EXPECT_EQ(Phases[0].Name, "probe");
  EXPECT_EQ(Phases[0].Count, 1u);
  const uint64_t *Units = Phases[0].work("units");
  ASSERT_NE(Units, nullptr);
  EXPECT_EQ(*Units, 3u);
}

TEST_F(TraceTest, ASpanFeedsOnlyTheSinkThatIsOn) {
  Tracer &T = Tracer::global();
  Profiler &P = Profiler::global();
  T.enable(16);
  runProbeSpan();
  T.disable();
  EXPECT_EQ(T.recorded(), 2u);
  EXPECT_TRUE(P.snapshot().empty());

  T.reset();
  P.enable();
  runProbeSpan();
  P.disable();
  EXPECT_EQ(T.recorded(), 0u);
  std::vector<PhaseStats> Phases = P.snapshot();
  ASSERT_EQ(Phases.size(), 1u);
  EXPECT_EQ(Phases[0].Count, 1u);
  ASSERT_NE(Phases[0].work("units"), nullptr);
  EXPECT_EQ(*Phases[0].work("units"), 3u);
}

TEST_F(TraceTest, RingWraparoundKeepsTheNewestEvents) {
  Tracer &T = Tracer::global();
  T.enable(8);
  for (int64_t I = 0; I < 20; ++I)
    T.instant("test", "tick", "i", I);
  T.disable();
  EXPECT_EQ(T.recorded(), 20u);
  EXPECT_EQ(T.dropped(), 12u);
  std::vector<TraceEvent> E = T.snapshot();
  ASSERT_EQ(E.size(), 8u);
  // The survivors are the last 8, oldest first.
  for (size_t I = 0; I < E.size(); ++I) {
    EXPECT_EQ(E[I].Seq, 12 + I);
    ASSERT_EQ(E[I].ArgCount, 1u);
    EXPECT_EQ(E[I].Args[0].Value, static_cast<int64_t>(12 + I));
  }
}

TEST_F(TraceTest, ChromeJsonIsStructurallyValid) {
  Tracer &T = Tracer::global();
  T.enable(64);
  {
    Span S("core", "scheduleJob", "tasks", 5);
    T.instant("flow", "job.commit", "variant", 2);
  }
  // A name needing escaping must not break the output.
  T.instant("test", "weird \"name\"\n");
  T.disable();
  std::string Json = T.chromeJson();
  EXPECT_TRUE(JsonChecker(Json).valid()) << Json;
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(Json.find("\"args\":{\"variant\":2}"), std::string::npos);
}

TEST_F(TraceTest, EmptyTracerStillExportsValidJson) {
  std::string Json = Tracer::global().chromeJson();
  EXPECT_TRUE(JsonChecker(Json).valid()) << Json;
}

TEST_F(TraceTest, CategoryFilterMasksUnlistedCategories) {
  Tracer &T = Tracer::global();
  T.setCategoryFilter("core, flow");
  T.enable(64);
  T.instant("core", "keep1");
  T.instant("sim", "drop1");
  T.instant("flow", "keep2");
  T.instant("sim", "drop2");
  T.disable();
  EXPECT_EQ(T.filtered(), 2u);
  std::vector<TraceEvent> E = T.snapshot();
  ASSERT_EQ(E.size(), 2u);
  EXPECT_STREQ(E[0].Name, "keep1");
  EXPECT_STREQ(E[1].Name, "keep2");
  EXPECT_TRUE(T.categoryEnabled("core"));
  EXPECT_TRUE(T.categoryEnabled("flow"));
  EXPECT_FALSE(T.categoryEnabled("sim"));
}

TEST_F(TraceTest, EmptyCategoryFilterRecordsEverything) {
  Tracer &T = Tracer::global();
  T.setCategoryFilter("");
  T.enable(16);
  T.instant("core", "a");
  T.instant("sim", "b");
  T.disable();
  EXPECT_EQ(T.filtered(), 0u);
  EXPECT_EQ(T.snapshot().size(), 2u);
  EXPECT_TRUE(T.categoryEnabled("anything"));
}

TEST_F(TraceTest, ResetClearsTheCategoryFilter) {
  Tracer &T = Tracer::global();
  T.setCategoryFilter("core");
  T.reset();
  T.enable(16);
  T.instant("sim", "survives");
  T.disable();
  EXPECT_EQ(T.filtered(), 0u);
  EXPECT_EQ(T.snapshot().size(), 1u);
}

TEST_F(TraceTest, ReenableResetsEpochAndRing) {
  Tracer &T = Tracer::global();
  T.enable(8);
  T.instant("test", "old");
  T.enable(8);
  T.instant("test", "new");
  T.disable();
  std::vector<TraceEvent> E = T.snapshot();
  ASSERT_EQ(E.size(), 1u);
  EXPECT_STREQ(E[0].Name, "new");
  EXPECT_EQ(E[0].Seq, 0u);
}

} // namespace

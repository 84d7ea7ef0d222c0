//===-- tests/test_metrics_registry.cpp - Metrics registry tests ----------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "metrics/QoS.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

using namespace cws;
using namespace cws::obs;

namespace {

TEST(MetricsCounter, AddsAndReturnsTheSameInstance) {
  Registry R;
  Counter &C = R.counter("requests_total", "requests seen");
  C.add();
  C.add(4);
  EXPECT_EQ(C.value(), 5u);
  EXPECT_EQ(&R.counter("requests_total"), &C);
}

TEST(MetricsGauge, SetAddSub) {
  Registry R;
  Gauge &G = R.gauge("depth");
  G.set(10);
  G.add(5);
  G.sub(3);
  EXPECT_EQ(G.value(), 12);
  G.set(-4);
  EXPECT_EQ(G.value(), -4);
}

TEST(MetricsHistogram, BucketBoundariesAreLessOrEqual) {
  Registry R;
  Histogram &H = R.histogram("latency", {1.0, 2.0, 5.0});
  // Prometheus `le` semantics: a value exactly on a bound belongs to
  // that bound's bucket.
  H.observe(0.5); // -> le=1
  H.observe(1.0); // -> le=1 (boundary)
  H.observe(1.5); // -> le=2
  H.observe(2.0); // -> le=2 (boundary)
  H.observe(5.0); // -> le=5 (boundary)
  H.observe(7.0); // -> +Inf
  EXPECT_EQ(H.bucketCount(0), 2u);
  EXPECT_EQ(H.bucketCount(1), 2u);
  EXPECT_EQ(H.bucketCount(2), 1u);
  EXPECT_EQ(H.bucketCount(3), 1u); // +Inf
  EXPECT_EQ(H.count(), 6u);
  EXPECT_DOUBLE_EQ(H.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 5.0 + 7.0);
  // Cumulative counts are monotone and end at the total.
  EXPECT_EQ(H.cumulativeCount(0), 2u);
  EXPECT_EQ(H.cumulativeCount(1), 4u);
  EXPECT_EQ(H.cumulativeCount(2), 5u);
  EXPECT_EQ(H.cumulativeCount(3), 6u);
}

TEST(MetricsRealGauge, StoresDoublesExactly) {
  Registry R;
  RealGauge &G = R.realGauge("cws_vo_mean_cost", "mean quota cost");
  EXPECT_DOUBLE_EQ(G.value(), 0.0);
  G.set(37.25);
  EXPECT_DOUBLE_EQ(G.value(), 37.25);
  G.set(-0.125);
  EXPECT_DOUBLE_EQ(G.value(), -0.125);
  EXPECT_EQ(&R.realGauge("cws_vo_mean_cost"), &G);
  G.reset();
  EXPECT_DOUBLE_EQ(G.value(), 0.0);
}

TEST(MetricsRealGauge, ExposesAsPrometheusGauge) {
  Registry R;
  R.realGauge("cws_test_ratio", "a real-valued gauge").set(62.5);
  std::string Text = R.prometheusText();
  EXPECT_NE(Text.find("# HELP cws_test_ratio a real-valued gauge\n"),
            std::string::npos);
  EXPECT_NE(Text.find("# TYPE cws_test_ratio gauge\n"), std::string::npos);
  EXPECT_NE(Text.find("cws_test_ratio 62.5\n"), std::string::npos);

  R.reset();
  EXPECT_NE(R.prometheusText().find("cws_test_ratio 0\n"),
            std::string::npos);
}

TEST(MetricsRegistry, PrometheusExpositionFormat) {
  Registry R;
  R.counter("cws_test_total", "things counted").add(3);
  R.gauge("cws_test_depth").set(-2);
  Histogram &H = R.histogram("cws_test_micros", {0.5, 10.0});
  H.observe(0.25);
  H.observe(50.0);

  std::string Text = R.prometheusText();
  EXPECT_NE(Text.find("# HELP cws_test_total things counted\n"),
            std::string::npos);
  EXPECT_NE(Text.find("# TYPE cws_test_total counter\n"), std::string::npos);
  EXPECT_NE(Text.find("cws_test_total 3\n"), std::string::npos);
  EXPECT_NE(Text.find("# TYPE cws_test_depth gauge\n"), std::string::npos);
  EXPECT_NE(Text.find("cws_test_depth -2\n"), std::string::npos);
  EXPECT_NE(Text.find("# TYPE cws_test_micros histogram\n"),
            std::string::npos);
  EXPECT_NE(Text.find("cws_test_micros_bucket{le=\"0.5\"} 1\n"),
            std::string::npos);
  EXPECT_NE(Text.find("cws_test_micros_bucket{le=\"10\"} 1\n"),
            std::string::npos);
  EXPECT_NE(Text.find("cws_test_micros_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(Text.find("cws_test_micros_sum 50.25\n"), std::string::npos);
  EXPECT_NE(Text.find("cws_test_micros_count 2\n"), std::string::npos);
}

TEST(MetricsRegistry, ResetZeroesValuesButKeepsRegistrations) {
  Registry R;
  Counter &C = R.counter("a_total");
  Gauge &G = R.gauge("b_depth");
  Histogram &H = R.histogram("c_micros", {1.0});
  C.add(5);
  G.set(9);
  H.observe(0.5);
  R.reset();
  EXPECT_EQ(C.value(), 0u);
  EXPECT_EQ(G.value(), 0);
  EXPECT_EQ(H.count(), 0u);
  EXPECT_DOUBLE_EQ(H.sum(), 0.0);
  // Same instances are still registered.
  EXPECT_EQ(&R.counter("a_total"), &C);
  EXPECT_EQ(&R.gauge("b_depth"), &G);
}

TEST(MetricsHistogram, QuantileInterpolatesPrometheusStyle) {
  Registry R;
  Histogram &H = R.histogram("q_micros", {1.0, 2.0, 4.0, 8.0});
  EXPECT_TRUE(std::isnan(H.quantile(0.5)));
  H.observe(0.5);
  H.observe(1.5);
  H.observe(3.0);
  H.observe(7.0);
  // histogram_quantile semantics: rank = q * count, linear
  // interpolation inside the bucket holding the rank. With one
  // observation per bucket and bounds {1,2,4,8}:
  //   p50: rank 2.0 -> (1,2] filled -> 2.0
  //   p90: rank 3.6 -> 0.6 into (4,8] -> 4 + 0.6*4 = 6.4
  //   p99: rank 3.96 -> 4 + 0.96*4 = 7.84
  EXPECT_DOUBLE_EQ(H.quantile(0.50), 2.0);
  EXPECT_DOUBLE_EQ(H.quantile(0.90), 6.4);
  EXPECT_DOUBLE_EQ(H.quantile(0.99), 7.84);
  // The first bucket interpolates from a lower edge of 0.
  EXPECT_DOUBLE_EQ(H.quantile(0.25), 1.0);
  EXPECT_DOUBLE_EQ(H.quantile(0.125), 0.5);
  // A rank landing in +Inf clamps to the highest finite bound.
  Histogram &Tail = R.histogram("tail_micros", {1.0, 2.0});
  Tail.observe(50.0);
  EXPECT_DOUBLE_EQ(Tail.quantile(0.99), 2.0);
}

TEST(MetricsHistogram, QuantilesAppearInExposition) {
  Registry R;
  Histogram &H = R.histogram("lat_micros", {1.0, 2.0, 4.0, 8.0});
  // An empty histogram must not emit NaN quantile series.
  EXPECT_EQ(R.prometheusText().find("lat_micros_p50"), std::string::npos);
  H.observe(0.5);
  H.observe(1.5);
  H.observe(3.0);
  H.observe(7.0);
  std::string Text = R.prometheusText();
  EXPECT_NE(Text.find("lat_micros_p50 2\n"), std::string::npos) << Text;
  EXPECT_NE(Text.find("lat_micros_p90 6.4\n"), std::string::npos) << Text;
  EXPECT_NE(Text.find("lat_micros_p99 7.84\n"), std::string::npos) << Text;
}

TEST(MetricsRegistry, LabeledSeriesShareOneFamilyHeader) {
  Registry R;
  R.realGauge("cws_flow_mean_cost{flow=\"S1\"}", "mean cost per flow")
      .set(10.0);
  R.realGauge("cws_flow_mean_cost{flow=\"S2\"}", "mean cost per flow")
      .set(20.0);
  std::string Text = R.prometheusText();
  // Exactly one HELP/TYPE pair for the family, both series present.
  size_t First = Text.find("# TYPE cws_flow_mean_cost gauge\n");
  ASSERT_NE(First, std::string::npos) << Text;
  EXPECT_EQ(Text.find("# TYPE cws_flow_mean_cost", First + 1),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("cws_flow_mean_cost{flow=\"S1\"} 10\n"),
            std::string::npos);
  EXPECT_NE(Text.find("cws_flow_mean_cost{flow=\"S2\"} 20\n"),
            std::string::npos);
}

TEST(MetricsRegistry, RenderNumberHandlesValuesNoIntegerHolds) {
  EXPECT_EQ(obs::renderNumber(42), "42");
  EXPECT_EQ(obs::renderNumber(-7), "-7");
  EXPECT_EQ(obs::renderNumber(6.4), "6.4");
  // Outside long long's range and non-finite values take the %g path
  // instead of an undefined integer conversion.
  EXPECT_EQ(obs::renderNumber(1e19), "1e+19");
  EXPECT_EQ(obs::renderNumber(-1e19), "-1e+19");
  EXPECT_EQ(obs::renderNumber(INFINITY), "inf");
  EXPECT_EQ(obs::renderNumber(NAN), "nan");
}

TEST(MetricsRegistry, EscapeLabelValueCoversTheExpositionEscapes) {
  // Prometheus exposition label values escape backslash, double quote
  // and newline — one pass, so the added backslashes are not
  // re-escaped.
  EXPECT_EQ(escapeLabelValue("plain"), "plain");
  EXPECT_EQ(escapeLabelValue("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(escapeLabelValue("\\n"), "\\\\n");
}

TEST(MetricsRegistry, FlowLabelValuesAreEscapedInTheExposition) {
  // A hostile flow name ('"', '\' and a newline) must neither break
  // the series name nor split the exposition line.
  Registry R;
  VoAggregates A;
  A.Jobs = 2;
  publishFlowAggregates(A, "ev\"il\\flow\nname", R);
  std::string Text = R.prometheusText();
  EXPECT_NE(
      Text.find("cws_flow_jobs{flow=\"ev\\\"il\\\\flow\\nname\"} 2\n"),
      std::string::npos)
      << Text;
  // The family header still splits at '{' despite the decorations.
  EXPECT_NE(Text.find("# TYPE cws_flow_jobs gauge\n"), std::string::npos)
      << Text;
  // No exposition line may contain a raw (unescaped) newline: every
  // line holds either a comment or exactly one sample.
  EXPECT_EQ(Text.find("\nname\"}"), std::string::npos) << Text;
}

TEST(MetricsRegistry, PublishTraceStatsExportsTracerCounters) {
  Tracer &T = Tracer::global();
  T.reset();
  T.setCategoryFilter("core");
  T.enable(4);
  T.instant("core", "keep");
  T.instant("sim", "masked");
  for (int I = 0; I < 6; ++I)
    T.instant("core", "tick");
  T.disable();
  Registry R;
  publishTraceStats(R);
  std::string Text = R.prometheusText();
  EXPECT_NE(Text.find("cws_trace_filtered_total 1\n"), std::string::npos)
      << Text;
  EXPECT_NE(Text.find("cws_trace_dropped_total 3\n"), std::string::npos)
      << Text;
  T.reset();
}

TEST(MetricsRegistry, GlobalRegistryExposesBuiltInInstruments) {
  // The library instruments register on first use through
  // Registry::global(); registering again must return the same
  // instrument rather than a duplicate series.
  Counter &C = Registry::global().counter("cws_selftest_total");
  Counter &Again = Registry::global().counter("cws_selftest_total");
  EXPECT_EQ(&C, &Again);
}

} // namespace

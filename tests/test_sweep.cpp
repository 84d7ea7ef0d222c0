//===-- tests/test_sweep.cpp - Scenario sweep harness tests ---------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "obs/Provenance.h"
#include "obs/Report.h"
#include "sweep/Scenario.h"
#include "sweep/Stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

using namespace cws;
using namespace cws::sweep;

namespace {

//===----------------------------------------------------------------------===//
// Grid parsing and expansion
//===----------------------------------------------------------------------===//

TEST(SweepGrid, ParsesAxesSeedsAndFixedKnobs) {
  SweepGrid G;
  std::string Error;
  ASSERT_TRUE(parseSweepGrid("# a grid\n"
                             "axis arrival_scale 1.0 2.0\n"
                             "axis strategy S1 S2 MS1  # inline comment\n"
                             "seeds 5\n"
                             "base_seed 100\n"
                             "jobs 40\n"
                             "slack 2.5\n",
                             G, Error))
      << Error;
  ASSERT_EQ(G.Axes.size(), 2u);
  EXPECT_EQ(G.Axes[0].Name, "arrival_scale");
  EXPECT_EQ(G.Axes[0].Values, (std::vector<std::string>{"1.0", "2.0"}));
  EXPECT_EQ(G.Axes[1].Values,
            (std::vector<std::string>{"S1", "S2", "MS1"}));
  EXPECT_EQ(G.Seeds, 5u);
  EXPECT_EQ(G.BaseSeed, 100u);
  EXPECT_EQ(G.Jobs, 40);
  EXPECT_DOUBLE_EQ(G.Slack, 2.5);
  EXPECT_EQ(sweepScenarioCount(G), 6u);
}

TEST(SweepGrid, RejectsMalformedGrids) {
  SweepGrid G;
  std::string Error;
  EXPECT_FALSE(parseSweepGrid("axis unknown_knob 1 2\n", G, Error));
  EXPECT_NE(Error.find("unknown axis"), std::string::npos) << Error;
  EXPECT_FALSE(parseSweepGrid("axis strategy\n", G, Error));
  EXPECT_FALSE(parseSweepGrid("axis strategy S1\naxis strategy S2\n", G,
                              Error));
  EXPECT_NE(Error.find("duplicate axis"), std::string::npos) << Error;
  EXPECT_FALSE(parseSweepGrid("axis strategy S1 S1\n", G, Error));
  EXPECT_NE(Error.find("duplicate value"), std::string::npos) << Error;
  EXPECT_FALSE(parseSweepGrid("axis strategy a=b\n", G, Error));
  EXPECT_NE(Error.find("token-shaped"), std::string::npos) << Error;
  EXPECT_FALSE(parseSweepGrid("seeds 0\n", G, Error));
  EXPECT_FALSE(parseSweepGrid("slack nope\n", G, Error));
  EXPECT_FALSE(parseSweepGrid("frobnicate 3\n", G, Error));
  // Numbers outside a directive's range are errors, never a wrapped or
  // defaulted value: a negative count would wrap to 2^64 - n.
  for (const char *Bad :
       {"jobs -5\n", "seeds -1\n", "seeds +3\n", "base_seed -1\n",
        "sample_every -2\n", "slack inf\n", "slack nan\n", "slack -1\n",
        "seeds 18446744073709551616\n", "base_seed 9223372036854775808\n",
        "jobs 9223372036854775808\n", "seeds 100001\n"}) {
    EXPECT_FALSE(parseSweepGrid(Bad, G, Error)) << Bad;
    EXPECT_NE(Error.find("line 1"), std::string::npos) << Error;
  }
  // The last replica seed must fit cws-sim's --seed, and every run is
  // expanded up front, so the run count is bounded too.
  EXPECT_FALSE(
      parseSweepGrid("base_seed 9223372036854775807\nseeds 2\n", G, Error));
  EXPECT_NE(Error.find("replica seed"), std::string::npos) << Error;
  EXPECT_TRUE(
      parseSweepGrid("base_seed 9223372036854775806\nseeds 2\n", G, Error))
      << Error;
  EXPECT_FALSE(parseSweepGrid("axis jobs 1 2 3 4 5 6 7 8 9 10\n"
                              "seeds 10001\n",
                              G, Error));
  EXPECT_NE(Error.find("100000 runs"), std::string::npos) << Error;
}

TEST(SweepGrid, CrlfGridReadsLikeTheLfGrid) {
  const std::string Lf = "# a grid\n"
                         "axis strategy S1 S2\n"
                         "axis jobs 10 20  # inline comment\n"
                         "seeds 2\n"
                         "slack 1.5\n";
  std::string Crlf;
  for (char C : Lf)
    Crlf += C == '\n' ? std::string("\r\n") : std::string(1, C);
  SweepGrid A, B;
  std::string Error;
  ASSERT_TRUE(parseSweepGrid(Lf, A, Error)) << Error;
  ASSERT_TRUE(parseSweepGrid(Crlf, B, Error)) << Error;
  ASSERT_EQ(B.Axes.size(), 2u);
  EXPECT_EQ(B.Axes[0].Values, A.Axes[0].Values);
  EXPECT_EQ(B.Axes[1].Values, A.Axes[1].Values);
  EXPECT_EQ(B.Seeds, A.Seeds);
  EXPECT_DOUBLE_EQ(B.Slack, A.Slack);
  // A CRLF error names the same line as its LF copy.
  EXPECT_FALSE(parseSweepGrid("seeds 1\r\naxis strategy S1 S9\r\n", B, Error));
  EXPECT_EQ(Error, "line 2: axis strategy value 'S9' must be S1, S2, S3 or "
                   "MS1");
}

/// Parses a grid that declares one axis on its second line; returns the
/// parse error, or "" when the grid parses.
std::string axisError(const std::string &Axis) {
  SweepGrid G;
  std::string Error;
  return parseSweepGrid("seeds 1\naxis " + Axis + "\n", G, Error) ? ""
                                                                    : Error;
}

/// Expects every value in \p Bad, declared after the good value
/// \p Good, to fail the grid on line 2 with an error naming it.
void expectAxisRejects(const std::string &Name, const std::string &Good,
                       std::initializer_list<const char *> Bad) {
  for (const char *Value : Bad) {
    std::string Error = axisError(Name + " " + Good + " " + Value);
    EXPECT_NE(Error.find("line 2: axis " + Name + " value '" + Value + "'"),
              std::string::npos)
        << Value << ": " << Error;
  }
}

// Each axis takes what its cws-sim flag accepts, so a bad value fails
// the grid before any run instead of failing that run.

TEST(SweepGrid, JobsAxisTakesCountsFromZero) {
  EXPECT_EQ(axisError("jobs 0 5 4000"), "");
  EXPECT_EQ(axisError("jobs 5 -5"),
            "line 2: axis jobs value '-5' must be >= 0");
  expectAxisRejects("jobs", "5", {"2.5", "x", "9223372036854775808"});
}

TEST(SweepGrid, SlackAxisTakesWhatSlackAccepts) {
  EXPECT_EQ(axisError("slack 0.5 1.3 4"), "");
  expectAxisRejects("slack", "2", {"0", "-1", "inf", "nan", "1e300", "2x"});
}

TEST(SweepGrid, ArrivalScaleAxisTakesPositiveFiniteNumbers) {
  EXPECT_EQ(axisError("arrival_scale 0.25 2"), "");
  expectAxisRejects("arrival_scale", "1", {"0", "-2", "inf", "nan", "1e999"});
}

TEST(SweepGrid, BackgroundScaleAxisTakesPositiveFiniteNumbers) {
  EXPECT_EQ(axisError("background_scale 0.25 2"), "");
  expectAxisRejects("background_scale", "1", {"0", "-2", "inf", "nan", "x"});
}

TEST(SweepGrid, FastShareAxisTakesFiniteSharesUpToOne) {
  // A negative share is cws-sim's paper default.
  EXPECT_EQ(axisError("fast_share -1 0 0.33 1"), "");
  expectAxisRejects("fast_share", "0.5", {"1.5", "inf", "nan", "-inf"});
}

TEST(SweepGrid, ExecAxisTakesZeroOrOne) {
  EXPECT_EQ(axisError("exec 0 1"), "");
  expectAxisRejects("exec", "1", {"2", "-1", "true", "0.5"});
}

TEST(SweepGrid, StrategyAxisTakesTheFourStrategies) {
  EXPECT_EQ(axisError("strategy S1 S2 S3 MS1"), "");
  expectAxisRejects("strategy", "S2", {"S9", "s1", "MS2"});
}

TEST(SweepGrid, ExpansionIsCartesianWithSeedReplicas) {
  SweepGrid G;
  std::string Error;
  ASSERT_TRUE(parseSweepGrid("axis arrival_scale 1.0 2.0\n"
                             "axis strategy S1 S2\n"
                             "seeds 2\n"
                             "base_seed 10\n",
                             G, Error))
      << Error;
  std::vector<SweepRunSpec> Runs = expandSweepGrid(G);
  ASSERT_EQ(Runs.size(), 8u);
  // Later axes cycle fastest; replicas are consecutive.
  EXPECT_EQ(Runs[0].ScenarioId, "arrival_scale=1.0+strategy=S1");
  EXPECT_EQ(Runs[0].Seed, 10u);
  EXPECT_EQ(Runs[1].ScenarioId, "arrival_scale=1.0+strategy=S1");
  EXPECT_EQ(Runs[1].Seed, 11u);
  EXPECT_EQ(Runs[2].ScenarioId, "arrival_scale=1.0+strategy=S2");
  EXPECT_EQ(Runs[4].ScenarioId, "arrival_scale=2.0+strategy=S1");
  EXPECT_EQ(Runs[7].ScenarioId, "arrival_scale=2.0+strategy=S2");
  EXPECT_EQ(Runs[7].ScenarioIndex, 3u);
  // Axis flags and the provenance scenario land in the sim args.
  const std::vector<std::string> &Args = Runs[0].SimArgs;
  auto Has = [&Args](const std::string &Flag, const std::string &Value) {
    for (size_t I = 0; I + 1 < Args.size(); ++I)
      if (Args[I] == Flag && Args[I + 1] == Value)
        return true;
    return false;
  };
  EXPECT_TRUE(Has("--arrival-scale", "1.0"));
  EXPECT_TRUE(Has("--strategy", "S1"));
  EXPECT_TRUE(Has("--scenario", "arrival_scale=1.0+strategy=S1"));
  EXPECT_TRUE(Has("--seed", "10"));
}

TEST(SweepGrid, AxisFreeGridIsOneScenario) {
  SweepGrid G;
  std::string Error;
  ASSERT_TRUE(parseSweepGrid("seeds 3\nslack 1.23456789\n", G, Error))
      << Error;
  std::vector<SweepRunSpec> Runs = expandSweepGrid(G);
  ASSERT_EQ(Runs.size(), 3u);
  EXPECT_EQ(Runs[0].ScenarioId, "default");
  // The fixed slack reaches cws-sim as written, not rounded.
  const std::vector<std::string> &Args = Runs[0].SimArgs;
  auto Slack = std::find(Args.begin(), Args.end(), "--slack");
  ASSERT_TRUE(Slack != Args.end() && Slack + 1 != Args.end());
  EXPECT_EQ(*(Slack + 1), "1.23456789");
}

//===----------------------------------------------------------------------===//
// Pooled statistics
//===----------------------------------------------------------------------===//

using ScenarioList =
    std::vector<std::pair<std::string,
                          std::vector<std::pair<std::string, std::string>>>>;

TEST(SweepStats, GoldenMeanCiAndQuantiles) {
  SweepAccumulator Acc(ScenarioList{{"s", {}}}, 5);
  for (double X : {0.1, 0.2, 0.3, 0.4, 0.5})
    Acc.addRun(0, {{"miss", X}});
  obs::SweepStore Store = Acc.finalize();
  ASSERT_EQ(Store.Scenarios.size(), 1u);
  const obs::SweepIndicatorStats *St = Store.Scenarios[0].indicator("miss");
  ASSERT_NE(St, nullptr);
  EXPECT_EQ(St->N, 5u);
  EXPECT_NEAR(St->Mean, 0.3, 1e-12);
  // Sample stddev of {.1 .2 .3 .4 .5} is sqrt(0.025).
  EXPECT_NEAR(St->Stddev, std::sqrt(0.025), 1e-12);
  // CI95 half-width = t_{0.975,4} * s / sqrt(5) with t = 2.776.
  EXPECT_NEAR(St->Ci95, 2.776 * std::sqrt(0.025) / std::sqrt(5.0), 1e-12);
  // Exact interpolated quantiles of the sorted samples.
  EXPECT_NEAR(St->P50, 0.3, 1e-12);
  EXPECT_NEAR(St->P90, 0.46, 1e-12);
  EXPECT_NEAR(St->P99, 0.496, 1e-12);
  EXPECT_DOUBLE_EQ(St->Min, 0.1);
  EXPECT_DOUBLE_EQ(St->Max, 0.5);
}

TEST(SweepStats, SingleSampleHasZeroSpread) {
  SweepAccumulator Acc(ScenarioList{{"s", {}}}, 1);
  Acc.addRun(0, {{"miss", 0.25}});
  obs::SweepStore Store = Acc.finalize();
  const obs::SweepIndicatorStats *St = Store.Scenarios[0].indicator("miss");
  ASSERT_NE(St, nullptr);
  EXPECT_EQ(St->N, 1u);
  EXPECT_DOUBLE_EQ(St->Mean, 0.25);
  EXPECT_DOUBLE_EQ(St->Stddev, 0.0);
  EXPECT_DOUBLE_EQ(St->Ci95, 0.0);
  EXPECT_DOUBLE_EQ(St->P50, 0.25);
}

TEST(SweepStats, PoolingOrderDoesNotChangeStatistics) {
  // Pooling {A then B} and {B then A} gives bit-identical statistics
  // because finalize() sorts first.
  std::map<std::string, double> RunsAB[4] = {
      {{"x", 0.7}, {"y", 3.0}},
      {{"x", 0.1}},
      {{"x", 0.4}, {"y", 1.0}},
      {{"x", 0.2}},
  };
  SweepAccumulator Forward(ScenarioList{{"s", {}}}, 4);
  for (const auto &Ind : RunsAB)
    Forward.addRun(0, Ind);
  SweepAccumulator Backward(ScenarioList{{"s", {}}}, 4);
  for (size_t I = 4; I-- > 0;)
    Backward.addRun(0, RunsAB[I]);
  EXPECT_EQ(obs::sweepCsv(Forward.finalize()),
            obs::sweepCsv(Backward.finalize()));
}

//===----------------------------------------------------------------------===//
// Store CSV round-trip
//===----------------------------------------------------------------------===//

TEST(SweepStore, CsvRoundTripsExactly) {
  SweepAccumulator Acc(
      ScenarioList{{"a=1+s=S1", {{"a", "1"}, {"s", "S1"}}},
                   {"a=2+s=S1", {{"a", "2"}, {"s", "S1"}}}},
      3);
  Acc.addRun(0, {{"miss", 0.02}, {"commit", 0.61}});
  Acc.addRun(0, {{"miss", 0.08}, {"commit", 0.55}});
  Acc.addRun(1, {{"miss", 0.11}});
  obs::SweepStore Store = Acc.finalize();
  std::string Csv = obs::sweepCsv(Store);

  obs::SweepStore Back;
  std::string Error;
  ASSERT_TRUE(obs::parseSweepCsv(Csv, Back, Error)) << Error;
  EXPECT_EQ(Back.Seeds, 3u);
  EXPECT_EQ(Back.Runs, 3u);
  ASSERT_EQ(Back.Scenarios.size(), 2u);
  EXPECT_EQ(Back.Scenarios[0].Axes,
            (std::vector<std::pair<std::string, std::string>>{
                {"a", "1"}, {"s", "S1"}}));
  // Serialize-parse-serialize is a fixed point.
  EXPECT_EQ(obs::sweepCsv(Back), Csv);
}

TEST(SweepStore, CsvRejectsMalformedInput) {
  obs::SweepStore S;
  std::string Error;
  EXPECT_FALSE(obs::parseSweepCsv("", S, Error));
  EXPECT_FALSE(obs::parseSweepCsv("wrong,header\n", S, Error));
  EXPECT_NE(Error.find("header"), std::string::npos) << Error;
  const std::string Header =
      "scenario,axes,indicator,n,mean,stddev,ci95,p50,p90,p99,min,max\n";
  EXPECT_FALSE(obs::parseSweepCsv(Header + "s,a=1,miss,2,0.5\n", S, Error));
  EXPECT_NE(Error.find("12 fields"), std::string::npos) << Error;
  EXPECT_FALSE(obs::parseSweepCsv(
      Header + "s,a=1,miss,xx,0,0,0,0,0,0,0,0\n", S, Error));
  EXPECT_FALSE(obs::parseSweepCsv(
      Header + "s,badaxes,miss,1,0,0,0,0,0,0,0,0\n", S, Error));
}

TEST(SweepStore, NaNFieldsRenderAndParseAsNa) {
  // An empty-sample indicator parses back to NaN, never 0.
  const std::string Header =
      "scenario,axes,indicator,n,mean,stddev,ci95,p50,p90,p99,min,max\n";
  obs::SweepStore S;
  std::string Error;
  ASSERT_TRUE(obs::parseSweepCsv(
      Header + "s,a=1,miss,0,n/a,n/a,n/a,n/a,n/a,n/a,n/a,n/a\n", S, Error))
      << Error;
  const obs::SweepIndicatorStats *St = S.Scenarios[0].indicator("miss");
  ASSERT_NE(St, nullptr);
  EXPECT_EQ(St->N, 0u);
  EXPECT_TRUE(std::isnan(St->Mean));
  EXPECT_TRUE(std::isnan(St->P90));
}

//===----------------------------------------------------------------------===//
// Sweep SLO evaluation
//===----------------------------------------------------------------------===//

static obs::SweepStore twoScenarioStore() {
  SweepAccumulator Acc(ScenarioList{{"lam=0.8", {{"lam", "0.8"}}},
                                    {"lam=0.9", {{"lam", "0.9"}}}},
                       3);
  Acc.addRun(0, {{"miss", 0.02}});
  Acc.addRun(0, {{"miss", 0.03}});
  Acc.addRun(0, {{"miss", 0.04}});
  Acc.addRun(1, {{"miss", 0.06}});
  Acc.addRun(1, {{"miss", 0.08}});
  Acc.addRun(1, {{"miss", 0.10}});
  return Acc.finalize();
}

TEST(SweepSlo, GatesQuantilesPerScenarioAndTracksTheWorst) {
  obs::SweepStore S = twoScenarioStore();
  std::vector<obs::SloRule> Rules;
  std::string Error;
  ASSERT_TRUE(obs::parseSloFile("miss.p90 <= 0.05 across seeds\n", Rules,
                                Error))
      << Error;
  std::vector<obs::SloResult> R = obs::evaluateSweepSlo(Rules, S);
  ASSERT_EQ(R.size(), 1u);
  EXPECT_TRUE(R[0].known());
  EXPECT_FALSE(R[0].Pass); // lam=0.9's p90 = 0.096 > 0.05
  EXPECT_EQ(R[0].Scenario, "lam=0.9");
  EXPECT_NEAR(R[0].Actual, 0.096, 1e-12);
  EXPECT_EQ(R[0].Evaluated, 2u);
  EXPECT_EQ(obs::renderSloBreaches("cws-sweep", R),
            "cws-sweep: SLO breach: miss.p90 = 0.096 at lam=0.9 violates "
            "<= 0.05\n");

  // Loosening the bound above every scenario's p90 passes.
  Rules[0].Bound = 0.2;
  EXPECT_TRUE(obs::evaluateSweepSlo(Rules, S)[0].Pass);
}

TEST(SweepSlo, DefaultStatIsTheMeanAndLowerBoundsTrackTheMinimum) {
  obs::SweepStore S = twoScenarioStore();
  std::vector<obs::SloRule> Rules;
  std::string Error;
  ASSERT_TRUE(obs::parseSloFile("miss >= 0.025\n", Rules, Error)) << Error;
  std::vector<obs::SloResult> R = obs::evaluateSweepSlo(Rules, S);
  ASSERT_EQ(R.size(), 1u);
  EXPECT_TRUE(R[0].known());
  // Worst for a >= rule is the smallest scenario mean: lam=0.8's 0.03.
  EXPECT_NEAR(R[0].Actual, 0.03, 1e-12);
  EXPECT_EQ(R[0].Scenario, "lam=0.8");
  EXPECT_TRUE(R[0].Pass);
}

TEST(SweepSlo, UnknownIndicatorsFailClosed) {
  obs::SweepStore S = twoScenarioStore();
  std::vector<obs::SloRule> Rules;
  std::string Error;
  ASSERT_TRUE(obs::parseSloFile("no_such.p90 <= 1.0 across seeds\n", Rules,
                                Error))
      << Error;
  std::vector<obs::SloResult> R = obs::evaluateSweepSlo(Rules, S);
  ASSERT_EQ(R.size(), 1u);
  EXPECT_FALSE(R[0].known());
  EXPECT_FALSE(R[0].Pass);
  EXPECT_EQ(R[0].Missing, "no scenario defines it");
  EXPECT_EQ(R[0].Evaluated, 0u);
  EXPECT_EQ(R[0].Skipped, 2u);
  EXPECT_EQ(obs::renderSloBreaches("cws-sweep", R),
            "cws-sweep: SLO breach: no_such.p90: no scenario defines it\n");
}

//===----------------------------------------------------------------------===//
// Crossing-point interpolation
//===----------------------------------------------------------------------===//

TEST(SweepCrossings, InterpolatesLinearlyBetweenAdjacentAxisValues) {
  // miss(0.8) = 0.03, miss(0.9) = 0.08: the 0.05 bound is crossed at
  // 0.8 + (0.05 - 0.03) / (0.08 - 0.03) * 0.1 = 0.84.
  obs::SweepStore S = twoScenarioStore();
  std::vector<obs::SweepCrossing> C =
      obs::estimateSweepCrossings(S, "miss", "mean", 0.05);
  ASSERT_EQ(C.size(), 1u);
  EXPECT_EQ(C[0].Axis, "lam");
  EXPECT_DOUBLE_EQ(C[0].LoAxis, 0.8);
  EXPECT_DOUBLE_EQ(C[0].HiAxis, 0.9);
  EXPECT_NEAR(C[0].LoValue, 0.03, 1e-12);
  EXPECT_NEAR(C[0].HiValue, 0.08, 1e-12);
  EXPECT_NEAR(C[0].At, 0.84, 1e-12);
  EXPECT_EQ(C[0].Context, "");

  // A bound outside the observed range crosses nothing.
  EXPECT_TRUE(obs::estimateSweepCrossings(S, "miss", "mean", 0.5).empty());
  // Non-numeric axes contribute no crossings.
  SweepAccumulator Acc(ScenarioList{{"strategy=S1", {{"strategy", "S1"}}},
                                    {"strategy=S2", {{"strategy", "S2"}}}},
                       1);
  Acc.addRun(0, {{"miss", 0.0}});
  Acc.addRun(1, {{"miss", 1.0}});
  EXPECT_TRUE(
      obs::estimateSweepCrossings(Acc.finalize(), "miss", "mean", 0.5)
          .empty());
}

TEST(SweepCrossings, GroupsByTheHeldFixedAxes) {
  SweepAccumulator Acc(
      ScenarioList{
          {"lam=1+s=S1", {{"lam", "1"}, {"s", "S1"}}},
          {"lam=1+s=S2", {{"lam", "1"}, {"s", "S2"}}},
          {"lam=2+s=S1", {{"lam", "2"}, {"s", "S1"}}},
          {"lam=2+s=S2", {{"lam", "2"}, {"s", "S2"}}},
      },
      1);
  Acc.addRun(0, {{"miss", 0.0}});  // S1 crosses between lam=1 and 2
  Acc.addRun(1, {{"miss", 0.2}});  // S2 stays above the bound
  Acc.addRun(2, {{"miss", 0.2}});
  Acc.addRun(3, {{"miss", 0.3}});
  std::vector<obs::SweepCrossing> C =
      obs::estimateSweepCrossings(Acc.finalize(), "miss", "", 0.1);
  ASSERT_EQ(C.size(), 1u);
  EXPECT_EQ(C[0].Axis, "lam");
  EXPECT_EQ(C[0].Context, "s=S1");
  EXPECT_DOUBLE_EQ(C[0].At, 1.5);
}

//===----------------------------------------------------------------------===//
// Report rendering
//===----------------------------------------------------------------------===//

TEST(SweepReport, RendersScenariosTrendsCrossingsAndVerdict) {
  SweepAccumulator Acc(ScenarioList{{"lam=0.8", {{"lam", "0.8"}}},
                                    {"lam=0.9", {{"lam", "0.9"}}}},
                       3);
  Acc.addRun(0, {{"deadline_miss_rate", 0.03}, {"commit_rate", 0.7}});
  Acc.addRun(0, {{"deadline_miss_rate", 0.03}, {"commit_rate", 0.6}});
  Acc.addRun(1, {{"deadline_miss_rate", 0.08}, {"commit_rate", 0.5}});
  Acc.addRun(1, {{"deadline_miss_rate", 0.10}, {"commit_rate", 0.4}});
  obs::SweepStore S = Acc.finalize();
  std::vector<obs::SloRule> Rules;
  std::string Error;
  ASSERT_TRUE(obs::parseSloFile("deadline_miss_rate <= 0.05\n", Rules,
                                Error))
      << Error;
  std::vector<obs::SloResult> Slo = obs::evaluateSweepSlo(Rules, S);
  std::string Report = obs::renderSweepReport(S, Slo);
  EXPECT_NE(Report.find("# CWS sweep report"), std::string::npos);
  EXPECT_NE(Report.find("lam=0.9"), std::string::npos);
  EXPECT_NE(Report.find("## Trend along lam"), std::string::npos);
  EXPECT_NE(Report.find("## Crossing points"), std::string::npos);
  EXPECT_NE(Report.find("crosses"), std::string::npos);
  EXPECT_NE(Report.find("**BREACH**"), std::string::npos);
  EXPECT_NE(Report.find("SLO: **FAIL**"), std::string::npos);
  // Deterministic rendering.
  EXPECT_EQ(Report, obs::renderSweepReport(S, Slo));
}

//===----------------------------------------------------------------------===//
// Provenance
//===----------------------------------------------------------------------===//

TEST(Provenance, CsvCommentRoundTrips) {
  obs::RunProvenance P;
  P.Stamped = true;
  P.Seed = 42;
  P.ConfigHash = obs::configHashOf("some canonical text");
  P.ScenarioId = "arrival_scale=1.0+strategy=S1";
  P.Cli = "cws-sim --jobs 40 --seed 42";
  P.Shards = 8;
  std::string Comment = obs::provenanceCsvComment(P);
  obs::RunProvenance Back;
  ASSERT_TRUE(obs::parseProvenanceCsvComment(
      Comment.substr(0, Comment.size() - 1), Back));
  EXPECT_TRUE(Back.valid());
  EXPECT_EQ(Back.Seed, 42u);
  EXPECT_EQ(Back.ConfigHash, P.ConfigHash);
  EXPECT_EQ(Back.ScenarioId, P.ScenarioId);
  EXPECT_EQ(Back.Cli, P.Cli);
  EXPECT_EQ(Back.Shards, 8);

  // A one-shot build stamps no shard count; the comment omits the
  // field and the parse leaves it zero.
  P.Shards = 0;
  obs::RunProvenance NoShards;
  std::string Bare = obs::provenanceCsvComment(P);
  EXPECT_EQ(Bare.find("shards="), std::string::npos);
  ASSERT_TRUE(obs::parseProvenanceCsvComment(Bare.substr(0, Bare.size() - 1),
                                             NoShards));
  EXPECT_EQ(NoShards.Shards, 0);
}

TEST(Provenance, SameScenarioIgnoresSeedAndCliButNotConfig) {
  obs::RunProvenance A;
  A.Stamped = true;
  A.Seed = 1;
  A.ConfigHash = "0x01";
  A.ScenarioId = "s";
  obs::RunProvenance B = A;
  B.Seed = 2;
  B.Cli = "different path";
  EXPECT_TRUE(A.sameScenario(B));
  B.ConfigHash = "0x02";
  EXPECT_FALSE(A.sameScenario(B));
  B = A;
  B.ScenarioId = "t";
  EXPECT_FALSE(A.sameScenario(B));
  obs::RunProvenance Unstamped;
  EXPECT_FALSE(A.sameScenario(Unstamped));
}

} // namespace

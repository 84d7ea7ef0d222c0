//===-- tests/test_report.cpp - Run-report and SLO gate tests -------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the cws-report building blocks: the tidy-CSV time-series
/// parser, the SLO rule grammar, the indicator join of journal and
/// time series, the fail-closed SLO evaluation, and the Markdown
/// rendering (with the per-flow table pinned to sorted flow order).
///
//===----------------------------------------------------------------------===//

#include "obs/Journal.h"
#include "obs/Report.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace cws;
using namespace cws::obs;

namespace {

class ReportTest : public ::testing::Test {
protected:
  void SetUp() override { Journal::global().reset(); }
  void TearDown() override { Journal::global().reset(); }
};

//===----------------------------------------------------------------------===//
// Time-series CSV parser
//===----------------------------------------------------------------------===//

TEST_F(ReportTest, ParsesTidyCsvRows) {
  ParsedTimeSeries Ts;
  std::string Error;
  ASSERT_TRUE(parseTimeSeriesCsv("seq,tick,reason,series,node,flow,value\n"
                                 "0,25,sample,jobs_committed,,,3\n"
                                 "0,25,sample,util_busy,4,,0.25\n"
                                 "1,30,commit,queued,,S1,2\n",
                                 Ts, Error))
      << Error;
  ASSERT_EQ(Ts.Rows.size(), 3u);
  EXPECT_EQ(Ts.Rows[0].Seq, 0u);
  EXPECT_EQ(Ts.Rows[0].At, 25);
  EXPECT_EQ(Ts.Rows[0].Reason, "sample");
  EXPECT_EQ(Ts.Rows[0].Series, "jobs_committed");
  EXPECT_EQ(Ts.Rows[0].Node, -1);
  EXPECT_DOUBLE_EQ(Ts.Rows[0].Value, 3.0);
  EXPECT_EQ(Ts.Rows[1].Node, 4);
  EXPECT_EQ(Ts.Rows[2].Flow, "S1");
}

TEST_F(ReportTest, CsvProvenanceCommentFillsTheStamp) {
  ParsedTimeSeries Ts;
  std::string Error;
  ASSERT_TRUE(parseTimeSeriesCsv(
      "# provenance seed=9 config=0xabc scenario=lam=2+s=S1 cli=cws-sim "
      "--seed 9\n"
      "seq,tick,reason,series,node,flow,value\n"
      "0,25,sample,jobs_committed,,,3\n",
      Ts, Error))
      << Error;
  ASSERT_TRUE(Ts.Prov.valid());
  EXPECT_EQ(Ts.Prov.Seed, 9u);
  EXPECT_EQ(Ts.Prov.ConfigHash, "0xabc");
  EXPECT_EQ(Ts.Prov.ScenarioId, "lam=2+s=S1");
  EXPECT_EQ(Ts.Prov.Cli, "cws-sim --seed 9");
  // Unstamped files still parse and report no provenance.
  ASSERT_TRUE(parseTimeSeriesCsv("seq,tick,reason,series,node,flow,value\n",
                                 Ts, Error))
      << Error;
  EXPECT_FALSE(Ts.Prov.valid());
}

TEST_F(ReportTest, RejectsMalformedCsv) {
  ParsedTimeSeries Ts;
  std::string Error;
  EXPECT_FALSE(parseTimeSeriesCsv("tick,series,value\n", Ts, Error));
  EXPECT_NE(Error.find("header"), std::string::npos) << Error;
  EXPECT_FALSE(
      parseTimeSeriesCsv("seq,tick,reason,series,node,flow,value\n"
                         "0,25,sample\n",
                         Ts, Error));
  EXPECT_NE(Error.find("line 2"), std::string::npos) << Error;
}

//===----------------------------------------------------------------------===//
// SLO rule grammar
//===----------------------------------------------------------------------===//

TEST_F(ReportTest, ParsesSloRulesWithCommentsAndBothDirections) {
  std::vector<SloRule> Rules;
  std::string Error;
  ASSERT_TRUE(parseSloFile("# quality gate\n"
                           "\n"
                           "deadline_miss_rate <= 0.05\n"
                           "commit_rate>=0.3  # inline comment\n",
                           Rules, Error))
      << Error;
  ASSERT_EQ(Rules.size(), 2u);
  EXPECT_EQ(Rules[0].Indicator, "deadline_miss_rate");
  EXPECT_TRUE(Rules[0].IsUpper);
  EXPECT_DOUBLE_EQ(Rules[0].Bound, 0.05);
  EXPECT_EQ(Rules[1].Indicator, "commit_rate");
  EXPECT_FALSE(Rules[1].IsUpper);
  EXPECT_DOUBLE_EQ(Rules[1].Bound, 0.3);
}

TEST_F(ReportTest, RejectsMalformedSloRules) {
  std::vector<SloRule> Rules;
  std::string Error;
  EXPECT_FALSE(parseSloFile("deadline_miss_rate\n", Rules, Error));
  EXPECT_FALSE(parseSloFile("x <= not_a_number\n", Rules, Error));
  EXPECT_FALSE(parseSloFile("x <= 1 trailing junk\n", Rules, Error));
  EXPECT_FALSE(parseSloFile("<= 1\n", Rules, Error));
}

TEST_F(ReportTest, ParsesQuantileSloGrammar) {
  std::vector<SloRule> Rules;
  std::string Error;
  ASSERT_TRUE(parseSloFile("deadline_miss_rate.p90 <= 0.05 across seeds\n"
                           "commit_rate.min >= 0.2\n"
                           "mean_node_busy <= 0.95\n",
                           Rules, Error))
      << Error;
  ASSERT_EQ(Rules.size(), 3u);
  EXPECT_EQ(Rules[0].Indicator, "deadline_miss_rate");
  EXPECT_EQ(Rules[0].Stat, "p90");
  EXPECT_TRUE(Rules[0].AcrossSeeds);
  EXPECT_EQ(Rules[0].fullName(), "deadline_miss_rate.p90");
  EXPECT_EQ(Rules[1].Stat, "min");
  EXPECT_FALSE(Rules[1].AcrossSeeds);
  EXPECT_EQ(Rules[2].Stat, "");
  EXPECT_EQ(Rules[2].fullName(), "mean_node_busy");

  // A dotted suffix that is not a pooled statistic stays part of the
  // indicator name (profile indicators are dotted: phase.chain.dp.count).
  ASSERT_TRUE(parseSloFile("x.p45 <= 1\n", Rules, Error)) << Error;
  ASSERT_EQ(Rules.size(), 1u);
  EXPECT_EQ(Rules[0].Indicator, "x.p45");
  EXPECT_EQ(Rules[0].Stat, "");
  EXPECT_FALSE(parseSloFile(".p90 <= 1\n", Rules, Error));
  EXPECT_FALSE(parseSloFile("x <= 1 across the universe\n", Rules, Error));
}

//===----------------------------------------------------------------------===//
// Indicators
//===----------------------------------------------------------------------===//

/// Three arrivals on two flows; one on-time commit, one deadline miss,
/// one reject; one reallocation after an environment change. A ring of
/// fewer than eight slots drops the oldest events.
ParsedJournal syntheticJournal(size_t Capacity = 64) {
  Journal &Jn = Journal::global();
  Jn.reset();
  Jn.enable(Capacity);
  Jn.append(JournalKind::Arrival, 1, 10, {{"deadline", 100}, {"tasks", 2}},
            "S1", /*FlowId=*/0);
  Jn.append(JournalKind::Arrival, 2, 12, {{"deadline", 150}, {"tasks", 2}},
            "S2", /*FlowId=*/1);
  Jn.append(JournalKind::Arrival, 3, 14, {{"deadline", 50}, {"tasks", 2}},
            "S1", /*FlowId=*/0);
  // "makespan" is the absolute completion tick: 90 <= 100 meets.
  Jn.append(JournalKind::Commit, 1, 20,
            {{"variant", 0}, {"start", 30}, {"makespan", 90}}, "ok",
            /*FlowId=*/0);
  Jn.append(JournalKind::EnvChange, -1, 25,
            {{"node", 1}, {"start", 30}, {"end", 60}}, "background");
  Jn.append(JournalKind::Reallocate, 2, 26, {}, "stale-strategy",
            /*FlowId=*/1);
  // 200 > 150 misses its deadline.
  Jn.append(JournalKind::Commit, 2, 28,
            {{"variant", 1}, {"start", 40}, {"makespan", 200}},
            "reallocated", /*FlowId=*/1);
  Jn.append(JournalKind::Reject, 3, 30, {}, "inadmissible", /*FlowId=*/0);
  Jn.disable();
  ParsedJournal J;
  std::string Error;
  EXPECT_TRUE(parseJournalJsonl(Jn.jsonl(), J, Error)) << Error;
  Jn.reset();
  return J;
}

TEST_F(ReportTest, ComputesJournalIndicators) {
  std::map<std::string, double> Ind =
      computeIndicators(syntheticJournal(), ParsedTimeSeries());
  EXPECT_DOUBLE_EQ(Ind["jobs_submitted"], 3.0);
  EXPECT_DOUBLE_EQ(Ind["jobs_committed"], 2.0);
  EXPECT_DOUBLE_EQ(Ind["jobs_rejected"], 1.0);
  EXPECT_DOUBLE_EQ(Ind["commit_rate"], 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(Ind["deadline_miss_rate"], 0.5);
  EXPECT_DOUBLE_EQ(Ind["env_changes"], 1.0);
  EXPECT_DOUBLE_EQ(Ind["reallocations"], 1.0);
  EXPECT_DOUBLE_EQ(Ind["reallocations_per_commit"], 0.5);
  // No time series joined: the utilization indicators stay absent.
  EXPECT_EQ(Ind.count("mean_node_busy"), 0u);
}

TEST_F(ReportTest, ExecutionCompletionOverridesTheCommitForecast) {
  Journal &Jn = Journal::global();
  Jn.enable(64);
  Jn.append(JournalKind::Arrival, 1, 0, {{"deadline", 100}, {"tasks", 1}},
            "S1", /*FlowId=*/0);
  // The commit forecasts a miss, but the actual execution finished in
  // time — the execution record wins.
  Jn.append(JournalKind::Commit, 1, 5,
            {{"variant", 0}, {"start", 10}, {"makespan", 120}}, "ok",
            /*FlowId=*/0);
  Jn.append(JournalKind::Execution, 1, 95, {{"completion", 95}, {"killed", 0}},
            "ok", /*FlowId=*/0);
  Jn.disable();
  ParsedJournal J;
  std::string Error;
  ASSERT_TRUE(parseJournalJsonl(Jn.jsonl(), J, Error)) << Error;
  std::map<std::string, double> Ind =
      computeIndicators(J, ParsedTimeSeries());
  EXPECT_DOUBLE_EQ(Ind["deadline_miss_rate"], 0.0);
}

TEST_F(ReportTest, UnjudgedDeadlineMissRateIsUndefinedAndFailsClosed) {
  Journal &Jn = Journal::global();
  Jn.enable(64);
  Jn.append(JournalKind::Arrival, 1, 0, {{"deadline", 100}, {"tasks", 1}},
            "S1", /*FlowId=*/0);
  Jn.append(JournalKind::Reject, 1, 2, {}, "inadmissible", /*FlowId=*/0);
  Jn.disable();
  ParsedJournal J;
  std::string Error;
  ASSERT_TRUE(parseJournalJsonl(Jn.jsonl(), J, Error)) << Error;
  std::map<std::string, double> Ind =
      computeIndicators(J, ParsedTimeSeries());
  // Nothing committed means nothing could be judged: the miss rate
  // stays undefined, not a reassuring 0.0.
  EXPECT_EQ(Ind.count("deadline_miss_rate"), 0u);

  std::vector<SloResult> Results =
      evaluateSlo({{"deadline_miss_rate", /*IsUpper=*/true, 0.05,
                    /*Stat=*/"", /*AcrossSeeds=*/false}},
                  J, ParsedTimeSeries());
  ASSERT_EQ(Results.size(), 1u);
  EXPECT_FALSE(Results[0].Pass); // undefined fails closed
  EXPECT_EQ(Results[0].Missing,
            "undefined in this run: no committed job has a deadline");
  std::string Report = renderRunReport(J, ParsedTimeSeries(), Results);
  EXPECT_NE(Report.find("| deadline miss rate | n/a |"), std::string::npos)
      << Report;
  EXPECT_NE(Report.find("SLO: **FAIL**"), std::string::npos) << Report;
}

TEST_F(ReportTest, RingTruncatedJournalLeavesIndicatorsUndefined) {
  // Five slots keep both commits but drop all three arrivals: counts
  // over the survivors would read 0 jobs submitted and 2 committed.
  ParsedJournal J = syntheticJournal(/*Capacity=*/5);
  ASSERT_EQ(J.Dropped, 3u);
  ParsedTimeSeries Ts;
  std::string Error;
  ASSERT_TRUE(parseTimeSeriesCsv("seq,tick,reason,series,node,flow,value\n"
                                 "0,10,sample,util_busy,0,,0.4\n"
                                 "0,10,sample,util_background,0,,0.2\n",
                                 Ts, Error))
      << Error;
  std::map<std::string, double> Ind = computeIndicators(J, Ts);
  // Only the time-series indicators remain.
  EXPECT_EQ(Ind.size(), 2u);
  EXPECT_EQ(Ind.count("mean_node_busy"), 1u);
  EXPECT_EQ(Ind.count("max_node_busy"), 1u);

  std::vector<SloResult> Results =
      evaluateSlo({{"commit_rate", /*IsUpper=*/false, 0.0, /*Stat=*/"",
                    /*AcrossSeeds=*/false},
                   {"deadline_miss_rate", /*IsUpper=*/true, 1.0, /*Stat=*/"",
                    /*AcrossSeeds=*/false}},
                  J, Ts);
  ASSERT_EQ(Results.size(), 2u);
  // The ring, not the run, is why: every journal indicator says so.
  for (const SloResult &R : Results) {
    EXPECT_EQ(R.Missing,
              "undefined in this run: the journal ring dropped 3 events");
    EXPECT_FALSE(R.Pass);
  }

  std::string Report = renderRunReport(J, Ts, Results);
  for (const char *Row :
       {"| journal events dropped | 3 |", "| jobs submitted | n/a |",
        "| commit rate | n/a |", "| reallocations per commit | n/a |"})
    EXPECT_NE(Report.find(Row), std::string::npos) << Row << "\n" << Report;
  // The timeline and the per-flow table do not count the survivors.
  const std::string Truncated = "n/a: the journal ring dropped 3 events.";
  size_t Timeline = Report.find(Truncated);
  ASSERT_NE(Timeline, std::string::npos) << Report;
  EXPECT_NE(Report.find(Truncated, Timeline + 1), std::string::npos)
      << Report;
  // A journal that dropped nothing has no dropped row.
  EXPECT_EQ(renderRunReport(syntheticJournal(), Ts, {}).find("dropped"),
            std::string::npos);
}

TEST_F(ReportTest, JoinsUtilizationFromTheTimeSeries) {
  ParsedTimeSeries Ts;
  std::string Error;
  // Node 0 averages 0.5 busy + 0.1 background, node 1 zero.
  ASSERT_TRUE(parseTimeSeriesCsv("seq,tick,reason,series,node,flow,value\n"
                                 "0,10,sample,util_busy,0,,0.4\n"
                                 "0,10,sample,util_background,0,,0.2\n"
                                 "0,10,sample,util_busy,1,,0\n"
                                 "0,10,sample,util_background,1,,0\n"
                                 "1,20,sample,util_busy,0,,0.6\n"
                                 "1,20,sample,util_background,0,,0\n"
                                 "1,20,sample,util_busy,1,,0\n"
                                 "1,20,sample,util_background,1,,0\n",
                                 Ts, Error))
      << Error;
  std::map<std::string, double> Ind =
      computeIndicators(ParsedJournal(), Ts);
  EXPECT_DOUBLE_EQ(Ind["max_node_busy"], 0.6);
  EXPECT_DOUBLE_EQ(Ind["mean_node_busy"], 0.3);
}

//===----------------------------------------------------------------------===//
// SLO evaluation
//===----------------------------------------------------------------------===//

TEST_F(ReportTest, EvaluatesRulesAndFailsClosedOnUnknownIndicators) {
  // The synthetic run commits 2 of 3 jobs and misses one of two
  // deadlines.
  std::vector<SloRule> Rules{
      {"commit_rate", /*IsUpper=*/false, 0.5, /*Stat=*/"",
       /*AcrossSeeds=*/false},
      {"deadline_miss_rate", /*IsUpper=*/true, 0.05, /*Stat=*/"",
       /*AcrossSeeds=*/false},
      {"jobs_submited", /*IsUpper=*/false, 0.0, /*Stat=*/"",
       /*AcrossSeeds=*/false}};
  std::vector<SloResult> Results =
      evaluateSlo(Rules, syntheticJournal(), ParsedTimeSeries());
  ASSERT_EQ(Results.size(), 3u);
  EXPECT_TRUE(Results[0].Pass);
  EXPECT_DOUBLE_EQ(Results[0].Actual, 2.0 / 3.0);
  EXPECT_FALSE(Results[1].Pass); // 0.5 > 0.05
  EXPECT_TRUE(Results[1].known());
  EXPECT_FALSE(Results[2].Pass); // a misspelling fails closed
  EXPECT_EQ(Results[2].Missing, "no such indicator");
  EXPECT_EQ(renderSloBreaches("cws-report", Results),
            "cws-report: SLO breach: deadline_miss_rate = 0.5 violates <= "
            "0.05\n"
            "cws-report: SLO breach: jobs_submited: no such indicator\n");
}

TEST_F(ReportTest, DistributionRuleWithoutASweepSaysSo) {
  // A `.stat` / `across seeds` rule gates a pooled distribution; a
  // single run has none, so it never passes here, even on an indicator
  // the run defines.
  std::vector<SloRule> Rules;
  std::string Error;
  ASSERT_TRUE(parseSloFile("deadline_miss_rate.p90 <= 1 across seeds\n"
                           "deadline_miss_rate.max <= 1\n",
                           Rules, Error))
      << Error;
  ParsedJournal J = syntheticJournal();
  std::vector<SloResult> R = evaluateSlo(Rules, J, ParsedTimeSeries());
  ASSERT_EQ(R.size(), 2u);
  for (const SloResult &Res : R) {
    EXPECT_EQ(Res.Missing, "a distribution rule needs --sweep");
    EXPECT_FALSE(Res.Pass);
  }
  // The table names the rule in full.
  std::string Report = renderRunReport(J, ParsedTimeSeries(), R);
  EXPECT_NE(Report.find("| deadline_miss_rate.p90 | <= 1 | a distribution "
                        "rule needs --sweep | **BREACH** |"),
            std::string::npos)
      << Report;
}

TEST_F(ReportTest, PhaseRuleWithoutAProfileSaysSo) {
  std::vector<SloRule> Rules{{"phase.chain.dp.self_us", /*IsUpper=*/false,
                              0.0, /*Stat=*/"", /*AcrossSeeds=*/false}};
  ParsedJournal J = syntheticJournal();
  std::vector<SloResult> R = evaluateSlo(Rules, J, ParsedTimeSeries());
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0].Missing, "phase indicators need --profile");
  EXPECT_FALSE(R[0].Pass);

  // With a profile the same rule gates the phase, and a phase the
  // profile lacks is a name nothing defines.
  ParsedProfile Profile;
  PhaseStats Dp;
  Dp.Name = "chain.dp";
  Dp.SelfUs = 12.5;
  Profile.Phases.push_back(Dp);
  Rules.push_back({"phase.no.such.self_us", /*IsUpper=*/false, 0.0,
                   /*Stat=*/"", /*AcrossSeeds=*/false});
  R = evaluateSlo(Rules, J, ParsedTimeSeries(), &Profile);
  ASSERT_EQ(R.size(), 2u);
  EXPECT_TRUE(R[0].Pass);
  EXPECT_DOUBLE_EQ(R[0].Actual, 12.5);
  EXPECT_EQ(R[1].Missing, "no such indicator");
}

TEST_F(ReportTest, IndicatorThisRunLeavesUndefinedSaysWhy) {
  // The synthetic run has no time series and no repair stage on record
  // (a rebuild-mode journal).
  std::vector<SloRule> Rules{
      {"mean_node_busy", /*IsUpper=*/true, 1.0, /*Stat=*/"",
       /*AcrossSeeds=*/false},
      {"realloc_repaired_dp", /*IsUpper=*/false, 0.0, /*Stat=*/"",
       /*AcrossSeeds=*/false}};
  std::vector<SloResult> R =
      evaluateSlo(Rules, syntheticJournal(), ParsedTimeSeries());
  ASSERT_EQ(R.size(), 2u);
  EXPECT_EQ(R[0].Missing, "undefined in this run: no time series attached");
  EXPECT_EQ(R[1].Missing, "undefined in this run: no repair stage on record "
                          "(a rebuild-mode journal)");
  EXPECT_EQ(renderSloBreaches("cws-report", R),
            "cws-report: SLO breach: mean_node_busy: undefined in this run: "
            "no time series attached\n"
            "cws-report: SLO breach: realloc_repaired_dp: undefined in this "
            "run: no repair stage on record (a rebuild-mode journal)\n");
}

//===----------------------------------------------------------------------===//
// Markdown rendering
//===----------------------------------------------------------------------===//

TEST_F(ReportTest, ReportRendersOverviewFlowsAndSloVerdict) {
  ParsedJournal J = syntheticJournal();
  std::vector<SloRule> Rules{{"deadline_miss_rate", /*IsUpper=*/true, 0.05,
                              /*Stat=*/"", /*AcrossSeeds=*/false}};
  std::string Report = renderRunReport(
      J, ParsedTimeSeries(), evaluateSlo(Rules, J, ParsedTimeSeries()));
  EXPECT_EQ(Report.rfind("# CWS run report\n", 0), 0u);
  EXPECT_NE(Report.find("| jobs submitted | 3 |"), std::string::npos)
      << Report;
  EXPECT_NE(Report.find("| commit rate | 66.7% |"), std::string::npos)
      << Report;
  EXPECT_NE(Report.find("## Per-flow QoS"), std::string::npos);
  // The miss rate (50%) breaches the 5% rule.
  EXPECT_NE(Report.find("**BREACH**"), std::string::npos) << Report;
  EXPECT_NE(Report.find("SLO: **FAIL**"), std::string::npos) << Report;

  std::string Passing = renderRunReport(
      J, ParsedTimeSeries(),
      evaluateSlo({{"commit_rate", /*IsUpper=*/false, 0.5, /*Stat=*/"",
                    /*AcrossSeeds=*/false}},
                  J, ParsedTimeSeries()));
  EXPECT_NE(Passing.find("SLO: **PASS**"), std::string::npos) << Passing;
}

TEST_F(ReportTest, PerFlowTableIsSortedByFlowId) {
  // Arrivals recorded in flow order 2, 0, 1; the table must come out
  // ascending regardless of event order.
  Journal &Jn = Journal::global();
  Jn.enable(64);
  Jn.append(JournalKind::Arrival, 1, 0, {{"deadline", 9}, {"tasks", 1}},
            "S3", /*FlowId=*/2);
  Jn.append(JournalKind::Arrival, 2, 1, {{"deadline", 9}, {"tasks", 1}},
            "S1", /*FlowId=*/0);
  Jn.append(JournalKind::Arrival, 3, 2, {{"deadline", 9}, {"tasks", 1}},
            "S2", /*FlowId=*/1);
  Jn.disable();
  ParsedJournal J;
  std::string Error;
  ASSERT_TRUE(parseJournalJsonl(Jn.jsonl(), J, Error)) << Error;
  std::string Report = renderRunReport(J, ParsedTimeSeries(), {});
  size_t Flow0 = Report.find("\n| 0 | 1 |");
  size_t Flow1 = Report.find("\n| 1 | 1 |");
  size_t Flow2 = Report.find("\n| 2 | 1 |");
  ASSERT_NE(Flow0, std::string::npos) << Report;
  ASSERT_NE(Flow1, std::string::npos) << Report;
  ASSERT_NE(Flow2, std::string::npos) << Report;
  EXPECT_LT(Flow0, Flow1);
  EXPECT_LT(Flow1, Flow2);
}

TEST_F(ReportTest, UtilizationSectionRanksContendedNodes) {
  ParsedTimeSeries Ts;
  std::string Error;
  ASSERT_TRUE(parseTimeSeriesCsv("seq,tick,reason,series,node,flow,value\n"
                                 "0,10,sample,util_busy,0,,0.1\n"
                                 "0,10,sample,util_background,0,,0.1\n"
                                 "0,10,sample,util_busy,1,,0.5\n"
                                 "0,10,sample,util_background,1,,0.3\n"
                                 "0,10,sample,util_reserved,1,,0.9\n",
                                 Ts, Error))
      << Error;
  std::string Report = renderRunReport(ParsedJournal(), Ts, {});
  EXPECT_NE(Report.find("## Utilization"), std::string::npos) << Report;
  // Node 1 (80% contended) outranks node 0 (20%).
  size_t Node1 = Report.find("\n| 1 | 50.0% | 30.0% |");
  size_t Node0 = Report.find("\n| 0 | 10.0% | 10.0% |");
  ASSERT_NE(Node1, std::string::npos) << Report;
  ASSERT_NE(Node0, std::string::npos) << Report;
  EXPECT_LT(Node1, Node0);
}

} // namespace

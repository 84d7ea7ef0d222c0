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

#include "obs/Diff.h"
#include "obs/Explain.h"
#include "obs/Journal.h"
#include "obs/Report.h"
#include "support/File.h"

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

/// \p Text with every line ending in "\r\n".
std::string crlf(const std::string &Text) {
  std::string Out;
  for (char C : Text) {
    if (C == '\n')
      Out += '\r';
    Out += C;
  }
  return Out;
}

TEST_F(ReportTest, CrlfSeriesReadsLikeTheLfFile) {
  std::string Text;
  ASSERT_TRUE(readFile(CWS_EXAMPLES_DIR "/baseline/example.ts.csv", Text));
  ParsedTimeSeries Lf, Crlf;
  std::string Error;
  ASSERT_TRUE(parseTimeSeriesCsv(Text, Lf, Error)) << Error;
  ASSERT_TRUE(parseTimeSeriesCsv(crlf(Text), Crlf, Error)) << Error;
  ASSERT_FALSE(Lf.Rows.empty());
  EXPECT_TRUE(diffTimeSeries(Lf, Crlf).identical());
  EXPECT_EQ(Crlf.Prov.Cli, Lf.Prov.Cli);
  EXPECT_EQ(Crlf.Dropped, 0u);
}

TEST_F(ReportTest, RejectsNumbersOutOfRangeOrNotFinite) {
  ParsedTimeSeries Ts;
  std::string Error;
  auto Row = [&](const std::string &Line) {
    return parseTimeSeriesCsv("seq,tick,reason,series,node,flow,value\n" +
                                  Line + "\n",
                              Ts, Error)
               ? std::string()
               : Error;
  };
  EXPECT_EQ(Row("0,99999999999999999999,sample,util_busy,0,,0.5"),
            "line 2: bad tick '99999999999999999999'");
  EXPECT_EQ(Row("-1,5,sample,util_busy,0,,0.5"), "line 2: bad seq '-1'");
  EXPECT_EQ(Row("0,5,sample,util_busy,1e3,,0.5"), "line 2: bad node '1e3'");
  for (const char *Value : {"nan", "inf", "-inf", "1e999", "0.5x"})
    EXPECT_EQ(Row(std::string("0,5,sample,util_busy,0,,") + Value),
              std::string("line 2: bad value '") + Value + "'");
  EXPECT_EQ(Row("0,5,sample,util_busy,0,,0.5"), "");
}

TEST_F(ReportTest, SweepStoreRejectsBadRunAndSeedCounts) {
  const std::string Header =
      "scenario,axes,indicator,n,mean,stddev,ci95,p50,p90,p99,min,max\n";
  SweepStore S;
  std::string Error;
  EXPECT_FALSE(parseSweepCsv("# cws-sweep statistics\n# sweep runs=abc "
                             "seeds=3\n" + Header,
                             S, Error));
  EXPECT_EQ(Error, "line 2: bad runs 'abc'");
  EXPECT_FALSE(parseSweepCsv("# cws-sweep statistics\n# sweep runs=6 "
                             "seeds=-1\n" + Header,
                             S, Error));
  EXPECT_EQ(Error, "line 2: bad seeds '-1'");
  EXPECT_FALSE(parseSweepCsv(Header + "s,,miss,2,nan,0,0,0,0,0,0,0\n", S,
                             Error));
  EXPECT_EQ(Error, "line 2: bad value 'nan'");
  // A store written by sweepCsv reads back, and so does its CRLF copy.
  const std::string Store = "# cws-sweep statistics\n# sweep runs=6 seeds=3\n" +
                            Header + "s,a=1;b=S1,miss,3,0.5,n/a,0,0,0,0,0,1\n";
  for (const std::string &Text : {Store, crlf(Store)}) {
    ASSERT_TRUE(parseSweepCsv(Text, S, Error)) << Error;
    EXPECT_EQ(S.Runs, 6u);
    EXPECT_EQ(S.Seeds, 3u);
    ASSERT_EQ(S.Scenarios.size(), 1u);
    EXPECT_EQ(S.Scenarios[0].axisValue("b"), "S1");
    EXPECT_EQ(S.Scenarios[0].indicator("miss")->Max, 1.0);
  }
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

TEST_F(ReportTest, SeriesThatDroppedFramesHasNoUtilization) {
  // The ring kept frames 40 onward: the first row's seq counts the 40
  // frames it dropped.
  ParsedTimeSeries Ts;
  std::string Error;
  ASSERT_TRUE(parseTimeSeriesCsv("seq,tick,reason,series,node,flow,value\n"
                                 "40,10,sample,util_busy,0,,0.4\n"
                                 "40,10,sample,util_background,0,,0.2\n"
                                 "40,10,sample,env_scan_placements,,,12\n",
                                 Ts, Error))
      << Error;
  EXPECT_EQ(Ts.Dropped, 40u);
  std::map<std::string, std::string> Undefined;
  std::map<std::string, double> Ind =
      computeIndicators(ParsedJournal(), Ts, &Undefined);
  EXPECT_EQ(Ind.count("mean_node_busy"), 0u);
  EXPECT_EQ(Ind.count("max_node_busy"), 0u);
  EXPECT_EQ(Undefined["mean_node_busy"],
            "the time-series ring dropped 40 frames");
  EXPECT_EQ(Undefined["max_node_busy"],
            "the time-series ring dropped 40 frames");
  // A running total survives the lost head.
  EXPECT_DOUBLE_EQ(Ind["env_scan_placements"], 12.0);
  std::string Report = renderRunReport(ParsedJournal(), Ts, {});
  EXPECT_NE(Report.find("## Utilization\n\nn/a: the time-series ring "
                        "dropped 40 frames.\n\n"),
            std::string::npos)
      << Report;
}

//===----------------------------------------------------------------------===//
// The journal fold
//===----------------------------------------------------------------------===//

/// Two flows. Job 1 (flow 0) commits a forecast of t=120 against its
/// deadline of 100 but executes by t=95; job 2 (flow 1) is invalidated,
/// saved by a stage-2 repair and commits t=60 against 50; job 3 is
/// rejected at admission; job 4's repair fails and it is rejected.
const char FoldJournal[] =
    "{\"kind\":\"journal.meta\",\"schema\":1,\"recorded\":19,\"dropped\":0}\n"
    "{\"id\":1,\"kind\":\"note\",\"tick\":0,\"detail\":\"sim.start\"}\n"
    "{\"id\":2,\"kind\":\"arrival\",\"tick\":1,\"job\":1,\"flow\":0,"
    "\"args\":{\"deadline\":100}}\n"
    "{\"id\":3,\"kind\":\"variant\",\"tick\":1,\"job\":1,\"flow\":0,"
    "\"cause\":2}\n"
    "{\"id\":4,\"kind\":\"collision\",\"tick\":1,\"job\":1,\"flow\":0,"
    "\"cause\":3}\n"
    "{\"id\":5,\"kind\":\"arrival\",\"tick\":2,\"job\":2,\"flow\":1,"
    "\"args\":{\"deadline\":50}}\n"
    "{\"id\":6,\"kind\":\"arrival\",\"tick\":3,\"job\":3,\"flow\":0,"
    "\"args\":{\"deadline\":80}}\n"
    "{\"id\":7,\"kind\":\"reject\",\"tick\":4,\"job\":3,\"flow\":0,"
    "\"cause\":6}\n"
    "{\"id\":8,\"kind\":\"commit\",\"tick\":5,\"job\":1,\"flow\":0,"
    "\"cause\":4,\"args\":{\"makespan\":120,\"cost\":40,\"cf\":7}}\n"
    "{\"id\":9,\"kind\":\"env.change\",\"tick\":8}\n"
    "{\"id\":10,\"kind\":\"invalidate\",\"tick\":10,\"job\":2,\"flow\":1,"
    "\"cause\":5,\"trigger\":9}\n"
    "{\"id\":11,\"kind\":\"shift\",\"tick\":11,\"job\":2,\"flow\":1,"
    "\"cause\":10}\n"
    "{\"id\":12,\"kind\":\"reallocate\",\"tick\":12,\"job\":2,\"flow\":1,"
    "\"cause\":11,\"trigger\":9}\n"
    "{\"id\":13,\"kind\":\"repair.stage\",\"tick\":12,\"job\":2,\"flow\":1,"
    "\"cause\":12,\"detail\":\"dp\",\"args\":{\"stage\":2,\"ok\":1}}\n"
    "{\"id\":14,\"kind\":\"commit\",\"tick\":13,\"job\":2,\"flow\":1,"
    "\"cause\":13,\"args\":{\"makespan\":60,\"cost\":30,\"cf\":5}}\n"
    "{\"id\":15,\"kind\":\"arrival\",\"tick\":20,\"job\":4,\"flow\":1,"
    "\"args\":{\"deadline\":200}}\n"
    "{\"id\":16,\"kind\":\"reallocate\",\"tick\":30,\"job\":4,\"flow\":1,"
    "\"cause\":15,\"trigger\":9}\n"
    "{\"id\":17,\"kind\":\"repair.stage\",\"tick\":30,\"job\":4,\"flow\":1,"
    "\"cause\":16,\"detail\":\"failed\",\"args\":{\"stage\":3,\"ok\":0}}\n"
    "{\"id\":18,\"kind\":\"reject\",\"tick\":30,\"job\":4,\"flow\":1,"
    "\"cause\":17}\n"
    "{\"id\":19,\"kind\":\"execution\",\"tick\":95,\"job\":1,\"flow\":0,"
    "\"cause\":8,\"args\":{\"completion\":95}}\n";

TEST_F(ReportTest, OneFoldFeedsEveryJournalNumber) {
  ParsedJournal A;
  std::string Error;
  ASSERT_TRUE(parseJournalJsonl(FoldJournal, A, Error)) << Error;
  EXPECT_TRUE(validateJournal(A).empty());

  JournalFold F = foldJournal(A);
  EXPECT_EQ(F.Totals[JournalKind::Arrival], 4);
  EXPECT_EQ(F.Totals[JournalKind::EnvChange], 1);
  EXPECT_EQ(F.Flows.at(1)[JournalKind::Reallocate], 2);
  EXPECT_EQ(F.Jobs.at(1).Completion, 95); // the execution, not the forecast
  EXPECT_EQ(F.Jobs.at(2).Verdict, JobVerdict::Committed);
  EXPECT_EQ(F.Jobs.at(2).DecidedAt, 13);
  EXPECT_EQ(F.Jobs.at(2).RepairedBy, 1u << 2);
  EXPECT_EQ(F.Jobs.at(4).RepairedBy, 0u);
  EXPECT_EQ(F.FirstStage12Repair, 12);

  // The indicators, the summary, the report's per-flow table and the
  // outcome verdicts read what the four separate walks they replace
  // read from this journal.
  std::map<std::string, double> Ind = computeIndicators(A, ParsedTimeSeries());
  const std::map<std::string, double> Want = {
      {"jobs_submitted", 4},         {"jobs_committed", 2},
      {"jobs_rejected", 2},          {"commit_rate", 0.5},
      {"reject_rate", 0.5},          {"deadline_miss_rate", 0.5},
      {"reallocations", 2},          {"invalidations", 1},
      {"env_changes", 1},            {"reallocations_per_commit", 1},
      {"realloc_repaired_shift", 0}, {"realloc_repaired_dp", 1},
      {"realloc_rebuilt", 0},        {"realloc_failed", 1},
      {"repair_stage12_share", 1},   {"mean_commit_cost", 35},
      {"mean_commit_cf", 6}};
  EXPECT_EQ(Ind, Want);

  EXPECT_EQ(journalSummary(A),
            "journal: 19 recorded, 0 dropped, 19 surviving; 1 environment "
            "change(s)\n"
            "| flow | arrivals | variants | collisions | invalidations | "
            "shifts | reallocs | commits | rejects |\n"
            "|------|----------|----------|------------|---------------|"
            "--------|----------|---------|---------|\n"
            "| 0    | 2        | 1        | 1          | 0             | "
            "0      | 0        | 1       | 1       |\n"
            "| 1    | 2        | 0        | 0          | 1             | "
            "1      | 2        | 1       | 1       |\n");
  std::string Report = renderRunReport(A, ParsedTimeSeries(), {});
  EXPECT_NE(Report.find("| flow | arrivals | commits | rejects | "
                        "invalidations | reallocations | commit rate |\n"
                        "|---|---|---|---|---|---|---|\n"
                        "| 0 | 2 | 1 | 1 | 0 | 0 | 50.0% |\n"
                        "| 1 | 2 | 1 | 1 | 1 | 2 | 50.0% |\n\n"),
            std::string::npos)
      << Report;

  // The rebuild oracle rejects job 2, which A's stage-2 repair saved.
  std::string TextB = FoldJournal;
  const std::string Commit = "\"kind\":\"commit\",\"tick\":13";
  TextB.replace(TextB.find(Commit), Commit.size(),
                "\"kind\":\"reject\",\"tick\":13");
  ParsedJournal B;
  ASSERT_TRUE(parseJournalJsonl(TextB, B, Error)) << Error;
  DiffResult Strict = diffJournalOutcomes(A, B);
  EXPECT_EQ(Strict.Summary, "outcomes diverge: 1 of 4 job verdict(s) differ");
  ASSERT_EQ(Strict.Findings.size(), 1u);
  EXPECT_EQ(Strict.Findings[0].Where, "job 2 outcome");
  EXPECT_EQ(Strict.Findings[0].A, "committed");
  EXPECT_EQ(Strict.Findings[0].B, "rejected");
  DiffOptions Saves;
  Saves.AllowRepairSaves = true;
  EXPECT_EQ(diffJournalOutcomes(A, B, Saves).Summary,
            "outcomes equivalent: 3 job verdict(s) agree, 1 repair save(s) "
            "accepted");
}

} // namespace

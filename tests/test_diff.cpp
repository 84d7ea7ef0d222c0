//===-- tests/test_diff.cpp - Semantic differential analysis tests --------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
//
// obs/Diff: the fixed point of two runs of one workload,
// first-divergence localization of an injected one-event change, the
// meta policy, exact series and sweep comparison, and the Markdown
// report golden.
//
//===----------------------------------------------------------------------===//

#include "flow/VirtualOrganization.h"
#include "obs/Diff.h"
#include "obs/Journal.h"
#include "obs/Report.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

using namespace cws;
using namespace cws::obs;

namespace {

class DiffTest : public ::testing::Test {
protected:
  void SetUp() override { Journal::global().reset(); }
  void TearDown() override { Journal::global().reset(); }
};

/// One journaled multi-flow run.
std::string journaledRun() {
  VoConfig Config;
  Config.JobCount = 24;
  Config.InterarrivalLo = 0;
  Config.InterarrivalHi = 6;
  Journal &Jn = Journal::global();
  Jn.reset();
  Jn.enable();
  runMultiFlowVo(Config, {StrategyKind::S1, StrategyKind::S3}, /*Seed=*/7);
  Jn.disable();
  std::string Out = Jn.jsonl();
  Jn.reset();
  return Out;
}

ParsedJournal parsed(const std::string &Text) {
  ParsedJournal J;
  std::string Error;
  EXPECT_TRUE(parseJournalJsonl(Text, J, Error)) << Error;
  return J;
}

/// A small hand-written journal: an environment change at t=5, job 7
/// triggered by it, job 8 independent.
const char BaseJournal[] =
    "{\"kind\":\"journal.meta\",\"schema\":1,\"recorded\":5,\"dropped\":0}\n"
    "{\"id\":1,\"kind\":\"env.change\",\"tick\":5,\"job\":-1,\"flow\":-1,"
    "\"detail\":\"node\",\"args\":{\"node\":2}}\n"
    "{\"id\":2,\"kind\":\"arrival\",\"tick\":10,\"job\":7,\"flow\":0}\n"
    "{\"id\":3,\"kind\":\"invalidate\",\"tick\":12,\"job\":7,\"flow\":0,"
    "\"cause\":2,\"trigger\":1}\n"
    "{\"id\":4,\"kind\":\"commit\",\"tick\":14,\"job\":7,\"flow\":0,"
    "\"cause\":3,\"args\":{\"cost\":9}}\n"
    "{\"id\":5,\"kind\":\"commit\",\"tick\":20,\"job\":8,\"flow\":0}\n";

/// BaseJournal with exactly one event changed: job 7's commit became a
/// reject (same tick, same args).
const char DivergedJournal[] =
    "{\"kind\":\"journal.meta\",\"schema\":1,\"recorded\":5,\"dropped\":0}\n"
    "{\"id\":1,\"kind\":\"env.change\",\"tick\":5,\"job\":-1,\"flow\":-1,"
    "\"detail\":\"node\",\"args\":{\"node\":2}}\n"
    "{\"id\":2,\"kind\":\"arrival\",\"tick\":10,\"job\":7,\"flow\":0}\n"
    "{\"id\":3,\"kind\":\"invalidate\",\"tick\":12,\"job\":7,\"flow\":0,"
    "\"cause\":2,\"trigger\":1}\n"
    "{\"id\":4,\"kind\":\"reject\",\"tick\":14,\"job\":7,\"flow\":0,"
    "\"cause\":3,\"args\":{\"cost\":9}}\n"
    "{\"id\":5,\"kind\":\"commit\",\"tick\":20,\"job\":8,\"flow\":0}\n";

TimeSeriesRow row(uint64_t Seq, Tick At, const std::string &Series,
                  double Value) {
  TimeSeriesRow R;
  R.Seq = Seq;
  R.At = At;
  R.Reason = "sample";
  R.Series = Series;
  R.Value = Value;
  return R;
}

SweepIndicatorStats stats(uint64_t N, double Mean, double Ci95, double P50,
                          double P90, double P99) {
  SweepIndicatorStats S;
  S.N = N;
  S.Mean = Mean;
  S.Stddev = Ci95; // Not compared beyond exact equality.
  S.Ci95 = Ci95;
  S.P50 = P50;
  S.P90 = P90;
  S.P99 = P99;
  S.Min = P50;
  S.Max = P99;
  return S;
}

SweepStore store(const SweepIndicatorStats &S) {
  SweepStore St;
  St.Seeds = 2;
  St.Runs = 2;
  SweepScenario Sc;
  Sc.Id = "strategy=S1";
  Sc.Axes = {{"strategy", "S1"}};
  Sc.Indicators["commit_rate"] = S;
  St.Scenarios.push_back(Sc);
  return St;
}

} // namespace

//===----------------------------------------------------------------------===//
// Journal fixed point across repeated runs
//===----------------------------------------------------------------------===//

TEST_F(DiffTest, RepeatedRunsAreASemanticFixedPoint) {
  ParsedJournal Base = parsed(journaledRun());
  ASSERT_FALSE(Base.Events.empty());
  ParsedJournal Other = parsed(journaledRun());
  DiffResult R = diffJournals(Base, Other);
  EXPECT_TRUE(R.identical()) << renderDiffText(R, "base", "other");
}

//===----------------------------------------------------------------------===//
// First-divergence localization
//===----------------------------------------------------------------------===//

TEST_F(DiffTest, InjectedDivergenceIsLocalizedToJobTickAndCause) {
  ParsedJournal A = parsed(BaseJournal);
  ParsedJournal B = parsed(DivergedJournal);
  DiffResult R = diffJournals(A, B);
  EXPECT_EQ(R.Verdict, DiffVerdict::Diverged);
  ASSERT_TRUE(R.First.Present);
  EXPECT_EQ(R.First.JobId, 7);
  EXPECT_EQ(R.First.Tick, 14);
  EXPECT_EQ(R.First.IndexInJob, 2u);
  EXPECT_NE(R.First.EventA.find("commit"), std::string::npos);
  EXPECT_NE(R.First.EventB.find("reject"), std::string::npos);
  // Both cause chains walk back through the invalidation, and the
  // invalidation's trigger is expanded to the env.change content.
  EXPECT_NE(R.First.ChainA.find("arrival"), std::string::npos);
  EXPECT_NE(R.First.ChainA.find("invalidate"), std::string::npos);
  EXPECT_NE(R.First.ChainA.find("trigger: t=5 env.change [node] node=2"),
            std::string::npos);
  EXPECT_NE(R.First.ChainB.find("reject"), std::string::npos);
  EXPECT_NE(R.Summary.find("job 7"), std::string::npos);
  EXPECT_NE(R.Summary.find("t=14"), std::string::npos);
}

TEST_F(DiffTest, IdenticalJournalsAreAFixedPoint) {
  ParsedJournal A = parsed(BaseJournal);
  ParsedJournal B = parsed(BaseJournal);
  DiffResult R = diffJournals(A, B);
  EXPECT_TRUE(R.identical()) << renderDiffText(R, "a", "b");
  EXPECT_FALSE(R.First.Present);
  EXPECT_EQ(R.TotalFindings, 0u);
}

TEST_F(DiffTest, MissingTrailingEventsAreReported) {
  // Drop job 8's commit: one side's chain is a strict prefix.
  std::string Short(BaseJournal);
  Short.resize(Short.find("{\"id\":5"));
  ParsedJournal A = parsed(BaseJournal);
  ParsedJournal B;
  std::string Error;
  // recorded no longer matches — parse leniently by fixing the header.
  size_t Pos = Short.find("\"recorded\":5");
  Short.replace(Pos, 12, "\"recorded\":4");
  ASSERT_TRUE(parseJournalJsonl(Short, B, Error)) << Error;
  DiffResult R = diffJournals(A, B);
  EXPECT_EQ(R.Verdict, DiffVerdict::Diverged);
  ASSERT_TRUE(R.First.Present);
  EXPECT_EQ(R.First.JobId, 8);
  EXPECT_EQ(R.First.EventB, "(absent)");
}

//===----------------------------------------------------------------------===//
// Meta policy
//===----------------------------------------------------------------------===//

TEST_F(DiffTest, MetaPolicyGatesProvenanceFields) {
  ParsedJournal A = parsed(BaseJournal);
  ParsedJournal B = parsed(BaseJournal);
  A.Prov.Stamped = B.Prov.Stamped = true;
  A.Prov.Seed = B.Prov.Seed = 3;
  A.Prov.ConfigHash = B.Prov.ConfigHash = "0xabc";
  A.Prov.ScenarioId = B.Prov.ScenarioId = "single";
  A.Prov.Shards = 1;
  B.Prov.Shards = 4;
  A.Prov.Cli = "cws-sim --journal a.jsonl";
  B.Prov.Cli = "cws-sim --journal b.jsonl";

  // Shards and cli differ: allowed by the default policy.
  EXPECT_TRUE(diffJournals(A, B).identical());

  // A seed mismatch is a divergence...
  B.Prov.Seed = 4;
  DiffResult R = diffJournals(A, B);
  EXPECT_EQ(R.Verdict, DiffVerdict::Diverged);
  ASSERT_EQ(R.MetaFindings.size(), 1u);
  EXPECT_EQ(R.MetaFindings[0].Where, "meta.seed");
  EXPECT_EQ(R.MetaFindings[0].A, "3");
  EXPECT_EQ(R.MetaFindings[0].B, "4");

  // ...unless the policy allows it, or meta comparison is off.
  DiffOptions Opts;
  Opts.Meta.AllowSeed = true;
  EXPECT_TRUE(diffJournals(A, B, Opts).identical());
  DiffOptions Off;
  Off.Meta.Off = true;
  EXPECT_TRUE(diffJournals(A, B, Off).identical());

  // Config hash and scenario are strict by default.
  B.Prov.Seed = 3;
  B.Prov.ConfigHash = "0xdef";
  EXPECT_EQ(diffJournals(A, B).MetaFindings[0].Where, "meta.config_hash");
  B.Prov.ConfigHash = "0xabc";
  B.Prov.ScenarioId = "other";
  EXPECT_EQ(diffJournals(A, B).MetaFindings[0].Where, "meta.scenario");

  // Disallowing shards catches the shard-count difference too.
  B.Prov.ScenarioId = "single";
  DiffOptions Strict;
  Strict.Meta.AllowShards = false;
  Strict.Meta.AllowCli = true;
  DiffResult S = diffJournals(A, B, Strict);
  ASSERT_EQ(S.MetaFindings.size(), 1u);
  EXPECT_EQ(S.MetaFindings[0].Where, "meta.shards");
}

TEST_F(DiffTest, UnstampedJournalsSkipMetaComparison) {
  ParsedJournal A = parsed(BaseJournal);
  ParsedJournal B = parsed(BaseJournal);
  EXPECT_TRUE(diffJournals(A, B).identical());
  // One stamped side is itself a finding.
  B.Prov.Stamped = true;
  B.Prov.Seed = 1;
  DiffResult R = diffJournals(A, B);
  EXPECT_EQ(R.Verdict, DiffVerdict::Diverged);
  ASSERT_EQ(R.MetaFindings.size(), 1u);
  EXPECT_EQ(R.MetaFindings[0].Where, "meta.provenance");
}

//===----------------------------------------------------------------------===//
// Series comparison
//===----------------------------------------------------------------------===//

TEST(DiffSeries, EveryRowComparesExactly) {
  ParsedTimeSeries A, B;
  A.Rows = {row(0, 1, "jobs_committed", 3), row(1, 1, "sched_wall_us", 120),
            row(2, 1, "util_busy", 0.500)};
  B.Rows = {row(0, 1, "jobs_committed", 3), row(1, 1, "sched_wall_us", 480),
            row(2, 1, "util_busy", 0.501)};

  // No series is skipped or banded: a wall-time-named row and a small
  // utilization drift are both findings.
  DiffResult R = diffTimeSeries(A, B);
  EXPECT_EQ(R.Verdict, DiffVerdict::Diverged);
  ASSERT_EQ(R.Findings.size(), 2u);
  EXPECT_EQ(R.Findings[0].Where, "seq 1 t=1 sched_wall_us");
  EXPECT_EQ(R.Findings[0].A, "120");
  EXPECT_EQ(R.Findings[0].B, "480");
  EXPECT_EQ(R.Findings[1].Where, "seq 2 t=1 util_busy");
  EXPECT_EQ(R.Summary, "series diverge: 2 finding(s), first at seq 1 t=1 "
                       "sched_wall_us");

  B.Rows[1].Value = 120;
  B.Rows[2].Value = 0.500;
  EXPECT_TRUE(diffTimeSeries(A, B).identical());
}

TEST(DiffSeries, SurplusRowsAreAbsentFindings) {
  ParsedTimeSeries A, B;
  A.Rows = {row(0, 1, "jobs_committed", 3), row(1, 2, "jobs_committed", 5)};
  B.Rows = {row(0, 1, "jobs_committed", 3)};
  DiffResult R = diffTimeSeries(A, B);
  EXPECT_EQ(R.Verdict, DiffVerdict::Diverged);
  ASSERT_EQ(R.Findings.size(), 1u);
  EXPECT_EQ(R.Findings[0].B, "(absent)");
}

//===----------------------------------------------------------------------===//
// Sweep verdicts, pinned numerics
//===----------------------------------------------------------------------===//

TEST(DiffSweep, ExactEqualityIsIdentical) {
  SweepStore A = store(stats(2, 0.5625, 0.794125, 0.5625, 0.6125, 0.62375));
  SweepStore B = store(stats(2, 0.5625, 0.794125, 0.5625, 0.6125, 0.62375));
  DiffResult R = diffSweeps(A, B);
  EXPECT_EQ(R.Verdict, DiffVerdict::Identical);
}

TEST(DiffSweep, AnyStatisticChangeDiverges) {
  SweepStore A = store(stats(2, 0.50, 0.05, 0.50, 0.60, 0.70));
  // A mean shift inside the CI overlap (|0.08| <= 0.05 + 0.04), a mean
  // shift past it, and a lone p99 change each diverge.
  for (const SweepIndicatorStats &Moved :
       {stats(2, 0.58, 0.04, 0.50, 0.60, 0.70),
        stats(2, 0.65, 0.04, 0.50, 0.60, 0.70),
        stats(2, 0.50, 0.05, 0.50, 0.60, 0.71)}) {
    DiffResult R = diffSweeps(A, store(Moved));
    EXPECT_EQ(R.Verdict, DiffVerdict::Diverged);
    ASSERT_EQ(R.Findings.size(), 1u);
    EXPECT_EQ(R.Findings[0].Where, "scenario strategy=S1 commit_rate");
    EXPECT_EQ(R.Findings[0].A, renderIndicatorStats(A.Scenarios[0].Indicators
                                                        .at("commit_rate")));
    EXPECT_EQ(R.Summary, "sweep regression: 1 finding(s), first at "
                         "scenario strategy=S1 commit_rate");
  }
}

TEST(DiffSweep, NaStatisticsMatchOnlyNa) {
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  SweepStore A = store(stats(0, NaN, NaN, NaN, NaN, NaN));
  EXPECT_TRUE(diffSweeps(A, store(stats(0, NaN, NaN, NaN, NaN, NaN)))
                  .identical());
  EXPECT_EQ(diffSweeps(A, store(stats(0, 0, NaN, NaN, NaN, NaN))).Verdict,
            DiffVerdict::Diverged);
}

TEST(DiffSweep, SampleCountChangeDiverges) {
  SweepStore A = store(stats(2, 0.50, 0.05, 0.50, 0.60, 0.70));
  SweepStore B = store(stats(3, 0.50, 0.05, 0.50, 0.60, 0.70));
  B.Runs = 3;
  EXPECT_EQ(diffSweeps(A, B).Verdict, DiffVerdict::Diverged);
}

TEST(DiffSweep, MissingScenariosAndIndicatorsDiverge) {
  SweepStore A = store(stats(2, 0.5, 0.1, 0.5, 0.6, 0.7));
  SweepStore B = A;
  B.Scenarios[0].Id = "strategy=S2";
  DiffResult R = diffSweeps(A, B);
  EXPECT_EQ(R.Verdict, DiffVerdict::Diverged);
  EXPECT_EQ(R.TotalFindings, 2u); // One missing on each side.

  SweepStore C = A;
  C.Scenarios[0].Indicators.erase("commit_rate");
  EXPECT_EQ(diffSweeps(A, C).Verdict, DiffVerdict::Diverged);
}

//===----------------------------------------------------------------------===//
// Renderings
//===----------------------------------------------------------------------===//

TEST_F(DiffTest, ReportGoldenForInjectedDivergence) {
  ParsedJournal A = parsed(BaseJournal);
  ParsedJournal B = parsed(DivergedJournal);
  std::string Report =
      renderDiffReport(diffJournals(A, B), "a.jsonl", "b.jsonl");
  EXPECT_EQ(Report,
            "# Differential run analysis (journal)\n"
            "\n"
            "- run A: `a.jsonl`\n"
            "- run B: `b.jsonl`\n"
            "- verdict: **diverged** — job 7 diverged at t=14: A #4 t=14 "
            "commit cost=9 vs B #4 t=14 reject cost=9\n"
            "\n"
            "## First divergence\n"
            "\n"
            "job 7 diverged at t=14 (event 3 of its chain):\n"
            "\n"
            "- A: `#4 t=14 commit cost=9`\n"
            "- B: `#4 t=14 reject cost=9`\n"
            "\n"
            "Cause chain in A (a.jsonl):\n"
            "\n"
            "```\n"
            "  #2 t=10 arrival\n"
            "  #3 t=12 invalidate\n"
            "      trigger: t=5 env.change [node] node=2\n"
            "  #4 t=14 commit cost=9\n"
            "```\n"
            "\n"
            "Cause chain in B (b.jsonl):\n"
            "\n"
            "```\n"
            "  #2 t=10 arrival\n"
            "  #3 t=12 invalidate\n"
            "      trigger: t=5 env.change [node] node=2\n"
            "  #4 t=14 reject cost=9\n"
            "```\n"
            "\n"
            "## Findings\n"
            "\n"
            "| where | A | B |\n"
            "|---|---|---|\n"
            "| job 7 event 3/3 | `#4 t=14 commit cost=9` | `#4 t=14 reject "
            "cost=9` |\n"
            "\n");
}

TEST_F(DiffTest, ExplainJobDiffLocalizesWithinTheJob) {
  ParsedJournal A = parsed(BaseJournal);
  ParsedJournal B = parsed(DivergedJournal);
  std::string Out = explainJobDiff(A, B, 7);
  EXPECT_NE(Out.find("--- run A ---"), std::string::npos);
  EXPECT_NE(Out.find("--- run B ---"), std::string::npos);
  EXPECT_NE(Out.find("job 7 diverges at t=14"), std::string::npos);
  // A job whose chains agree says so and points elsewhere.
  std::string Same = explainJobDiff(A, B, 8);
  EXPECT_NE(Same.find("causal chains agree"), std::string::npos);
  EXPECT_NE(Same.find("diverge elsewhere"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Outcome mode: the cross-reallocation-mode equivalence gate
//===----------------------------------------------------------------------===//

namespace {

/// A repair-mode run (A-side): job 5 decided before any repair, job 7
/// saved by a stage-2 repair at t=14, jobs 8 and 9 decided after it.
const char RepairRunJournal[] =
    "{\"kind\":\"journal.meta\",\"schema\":1,\"recorded\":6,\"dropped\":0}\n"
    "{\"id\":1,\"kind\":\"commit\",\"tick\":10,\"job\":5,\"flow\":0}\n"
    "{\"id\":2,\"kind\":\"repair.stage\",\"tick\":14,\"job\":7,\"flow\":0,"
    "\"detail\":\"dp\",\"args\":{\"stage\":2,\"ok\":1}}\n"
    "{\"id\":3,\"kind\":\"commit\",\"tick\":15,\"job\":7,\"flow\":0}\n"
    "{\"id\":4,\"kind\":\"commit\",\"tick\":30,\"job\":8,\"flow\":0}\n"
    "{\"id\":5,\"kind\":\"reject\",\"tick\":40,\"job\":9,\"flow\":0}\n";

/// The rebuild oracle (B-side): job 5 agrees, job 7 rejected (the
/// save), jobs 8 and 9 flipped both ways by post-repair drift.
const char RebuildRunJournal[] =
    "{\"kind\":\"journal.meta\",\"schema\":1,\"recorded\":5,\"dropped\":0}\n"
    "{\"id\":1,\"kind\":\"commit\",\"tick\":10,\"job\":5,\"flow\":0}\n"
    "{\"id\":2,\"kind\":\"reject\",\"tick\":14,\"job\":7,\"flow\":0}\n"
    "{\"id\":3,\"kind\":\"reject\",\"tick\":30,\"job\":8,\"flow\":0}\n"
    "{\"id\":4,\"kind\":\"commit\",\"tick\":40,\"job\":9,\"flow\":0}\n";

} // namespace

TEST_F(DiffTest, OutcomesStrictModeFlagsEveryFlip) {
  ParsedJournal A = parsed(RepairRunJournal);
  ParsedJournal B = parsed(RebuildRunJournal);
  DiffResult R = diffJournalOutcomes(A, B);
  EXPECT_EQ(R.Verdict, DiffVerdict::Diverged);
  EXPECT_EQ(R.TotalFindings, 3u); // Jobs 7, 8 and 9.
}

TEST_F(DiffTest, OutcomesAcceptSavesAndPostRepairDrift) {
  ParsedJournal A = parsed(RepairRunJournal);
  ParsedJournal B = parsed(RebuildRunJournal);
  DiffOptions Opts;
  Opts.AllowRepairSaves = true;
  DiffResult R = diffJournalOutcomes(A, B, Opts);
  EXPECT_TRUE(R.identical()) << R.Summary;
  EXPECT_NE(R.Summary.find("1 repair save(s) accepted"), std::string::npos)
      << R.Summary;
  EXPECT_NE(R.Summary.find("2 post-repair drift(s) accepted"),
            std::string::npos)
      << R.Summary;
}

TEST_F(DiffTest, OutcomesRejectDivergenceBeforeTheFirstRepair) {
  // Job 5's flip happens at t=10, before the first stage-1/2 repair at
  // t=14 — the grids were still identical, so this is a defect.
  ParsedJournal A = parsed(RepairRunJournal);
  ParsedJournal B = parsed(RebuildRunJournal);
  B.Events[0].Kind = "reject";
  DiffOptions Opts;
  Opts.AllowRepairSaves = true;
  DiffResult R = diffJournalOutcomes(A, B, Opts);
  EXPECT_EQ(R.Verdict, DiffVerdict::Diverged);
  ASSERT_EQ(R.Findings.size(), 1u);
  EXPECT_EQ(R.Findings[0].Where, "job 5 outcome");
}

TEST_F(DiffTest, OutcomesRejectDriftWithoutAnyRepairOnRecord) {
  // Without a successful stage-1/2 repair in A there is no moment the
  // grids could have legitimately diverged: every flip is a defect.
  ParsedJournal A = parsed(RepairRunJournal);
  ParsedJournal B = parsed(RebuildRunJournal);
  A.Events.erase(A.Events.begin() + 1); // Drop the repair.stage event.
  DiffOptions Opts;
  Opts.AllowRepairSaves = true;
  DiffResult R = diffJournalOutcomes(A, B, Opts);
  EXPECT_EQ(R.Verdict, DiffVerdict::Diverged);
  EXPECT_EQ(R.TotalFindings, 3u);
}

TEST_F(DiffTest, OutcomesDominanceBackstopCatchesNetLoss) {
  // Turn A's extra commits (jobs 7 and 8) into rejects that agree
  // with B: the only divergence left is job 9's drift, which leaves A
  // committing 1 job to B's 2. The drift is tick-eligible per job, but
  // the aggregate backstop must still fail the comparison.
  ParsedJournal A = parsed(RepairRunJournal);
  ParsedJournal B = parsed(RebuildRunJournal);
  A.Events[2].Kind = "reject"; // Job 7 now agrees with B.
  A.Events[3].Kind = "reject"; // Job 8 now agrees with B.
  DiffOptions Opts;
  Opts.AllowRepairSaves = true;
  DiffResult R = diffJournalOutcomes(A, B, Opts);
  EXPECT_EQ(R.Verdict, DiffVerdict::Diverged);
  bool Backstop = false;
  for (const DiffFinding &F : R.Findings)
    Backstop |= F.Where == "committed jobs total";
  EXPECT_TRUE(Backstop) << R.Summary;
}

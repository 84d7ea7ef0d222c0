//===-- tests/test_explain.cpp - Journal explain/golden tests -------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end tests of the decision journal on a deterministic VO run
/// (schema validity, causal-chain completeness, byte-determinism from
/// run to run) plus golden renderings of the cws-explain analyses on a
/// hand-built journal.
///
//===----------------------------------------------------------------------===//

#include "flow/VirtualOrganization.h"
#include "obs/Explain.h"
#include "obs/Journal.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

using namespace cws;
using namespace cws::obs;

namespace {

class ExplainTest : public ::testing::Test {
protected:
  void SetUp() override { Journal::global().reset(); }
  void TearDown() override { Journal::global().reset(); }
};

std::string journaledRun() {
  VoConfig Config;
  Config.JobCount = 30;
  Journal &Jn = Journal::global();
  Jn.reset();
  Jn.enable();
  runVirtualOrganization(Config, StrategyKind::S1, /*Seed=*/7);
  Jn.disable();
  std::string Out = Jn.jsonl();
  Jn.reset();
  return Out;
}

TEST_F(ExplainTest, SimulationJournalPassesValidation) {
  ParsedJournal J;
  std::string Error;
  ASSERT_TRUE(parseJournalJsonl(journaledRun(), J, Error)) << Error;
  EXPECT_EQ(J.Dropped, 0u);
  EXPECT_GT(J.Events.size(), 0u);
  std::vector<std::string> Violations = validateJournal(J);
  EXPECT_TRUE(Violations.empty())
      << Violations.size() << " violations, first: " << Violations.front();
}

TEST_F(ExplainTest, JournalIsByteDeterministicRunToRun) {
  EXPECT_EQ(journaledRun(), journaledRun());
}

TEST_F(ExplainTest, EveryJobChainStartsWithArrivalThenAdmission) {
  ParsedJournal J;
  std::string Error;
  ASSERT_TRUE(parseJournalJsonl(journaledRun(), J, Error)) << Error;
  // Group kinds per job in id order; every journaled job must open with
  // arrival -> admission and close with a terminal decision.
  std::map<int64_t, std::vector<const ParsedJournalEvent *>> PerJob;
  for (const ParsedJournalEvent &E : J.Events)
    if (E.JobId >= 0)
      PerJob[E.JobId].push_back(&E);
  EXPECT_GT(PerJob.size(), 0u);
  for (const auto &[Job, Chain] : PerJob) {
    ASSERT_GE(Chain.size(), 2u) << "job " << Job;
    EXPECT_EQ(Chain[0]->Kind, "arrival") << "job " << Job;
    EXPECT_GE(Chain[0]->FlowId, 0) << "job " << Job;
    // The admission verdict follows the arrival and its variant events.
    bool SawAdmission = false;
    bool SawTerminal = false;
    for (const ParsedJournalEvent *E : Chain) {
      if (E->Kind == "admission")
        SawAdmission = true;
      if (E->Kind == "commit" || E->Kind == "reject")
        SawTerminal = true;
    }
    EXPECT_TRUE(SawAdmission) << "job " << Job;
    EXPECT_TRUE(SawTerminal) << "job " << Job;
  }
}

TEST_F(ExplainTest, ExplainJobRendersTheTimeline) {
  ParsedJournal J;
  std::string Error;
  ASSERT_TRUE(parseJournalJsonl(journaledRun(), J, Error)) << Error;
  ASSERT_FALSE(J.Events.empty());
  // Pick the first job that appears.
  int64_t Job = -1;
  for (const ParsedJournalEvent &E : J.Events)
    if (E.JobId >= 0) {
      Job = E.JobId;
      break;
    }
  ASSERT_GE(Job, 0);
  std::string Out = explainJob(J, Job);
  EXPECT_NE(Out.find("job " + std::to_string(Job) + " (flow "),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find(" arrival"), std::string::npos) << Out;
  EXPECT_NE(Out.find(" admission"), std::string::npos) << Out;
  EXPECT_EQ(explainJob(J, 999999),
            "job 999999: no events in journal\n");
}

TEST_F(ExplainTest, SummaryCountsFlowsAndEnvChanges) {
  ParsedJournal J;
  std::string Error;
  ASSERT_TRUE(parseJournalJsonl(journaledRun(), J, Error)) << Error;
  std::string Out = journalSummary(J);
  EXPECT_NE(Out.find("journal: "), std::string::npos) << Out;
  EXPECT_NE(Out.find("environment change(s)"), std::string::npos) << Out;
  EXPECT_NE(Out.find("arrivals"), std::string::npos) << Out;
  EXPECT_NE(Out.find("commits"), std::string::npos) << Out;
}

TEST_F(ExplainTest, SummaryListsFlowsInAscendingIdOrder) {
  // Arrivals recorded out of order (flows 2, 0, 1); the summary table
  // must render ascending ids no matter how events interleave.
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
  std::string Out = journalSummary(J);
  size_t Flow0 = Out.find("\n| 0 ");
  size_t Flow1 = Out.find("\n| 1 ");
  size_t Flow2 = Out.find("\n| 2 ");
  ASSERT_NE(Flow0, std::string::npos) << Out;
  ASSERT_NE(Flow1, std::string::npos) << Out;
  ASSERT_NE(Flow2, std::string::npos) << Out;
  EXPECT_LT(Flow0, Flow1);
  EXPECT_LT(Flow1, Flow2);
}

/// Builds the canonical broken-strategy story by hand: an arrival, the
/// background placement that broke the schedule, the invalidation
/// naming the broken slot, the reallocation and the recovery commit.
ParsedJournal syntheticReallocation() {
  Journal &Jn = Journal::global();
  Jn.reset();
  Jn.enable(64);
  Jn.append(JournalKind::Arrival, 4, 100, {{"deadline", 600}, {"tasks", 3}},
            "S1", /*FlowId=*/0);
  Jn.append(JournalKind::EnvChange, -1, 130,
            {{"node", 2}, {"start", 150}, {"end", 210}}, "background");
  Jn.append(JournalKind::Invalidate, 4, 130,
            {{"variant", 1},
             {"node", 2},
             {"start", 160},
             {"end", 200},
             {"busy_start", 150},
             {"busy_end", 210},
             {"ttl", 30}},
            "stale");
  Jn.append(JournalKind::Reallocate, 4, 131, {}, "stale-strategy");
  Jn.append(JournalKind::Commit, 4, 140,
            {{"variant", 2}, {"start", 220}, {"makespan", 60}}, "reallocated");
  Jn.disable();
  ParsedJournal J;
  std::string Error;
  EXPECT_TRUE(parseJournalJsonl(Jn.jsonl(), J, Error)) << Error;
  EXPECT_TRUE(validateJournal(J).empty());
  Jn.reset();
  return J;
}

TEST_F(ExplainTest, WhyReallocatedNamesTriggerSlotAndOutcome) {
  ParsedJournal J = syntheticReallocation();
  EXPECT_EQ(
      explainReallocations(J),
      "job 4 reallocated at t=131 (#4) [stale-strategy]\n"
      "  trigger: #2 t=130 env.change [background] node=2 start=150 end=210\n"
      "  invalidated: #3 t=130 invalidate [stale] variant=1 node=2 "
      "start=160 end=200 busy_start=150 busy_end=210 ttl=30\n"
      "  outcome: #5 t=140 commit [reallocated] variant=2 start=220 "
      "makespan=60\n"
      "1 reallocation(s)\n");
}

TEST_F(ExplainTest, WhyRejectedShowsReasonAndPrecedingDecision) {
  Journal &Jn = Journal::global();
  Jn.enable(64);
  Jn.append(JournalKind::Arrival, 8, 50, {{"deadline", 70}, {"tasks", 2}},
            "S1", /*FlowId=*/1);
  Jn.append(JournalKind::Admission, 8, 50,
            {{"admissible", 0}, {"feasible", 0}});
  Jn.append(JournalKind::Reject, 8, 50, {}, "inadmissible");
  Jn.disable();
  ParsedJournal J;
  std::string Error;
  ASSERT_TRUE(parseJournalJsonl(Jn.jsonl(), J, Error)) << Error;
  EXPECT_EQ(explainRejections(J),
            "job 8 rejected at t=50 (#3): inadmissible\n"
            "  after: #2 t=50 admission admissible=0 feasible=0\n"
            "1 rejection(s)\n");
  EXPECT_EQ(explainReallocations(J), "no reallocations in journal\n");
}

TEST_F(ExplainTest, ValidatorFlagsBrokenJournals) {
  // A cause must reference an earlier event.
  ParsedJournal J;
  std::string Error;
  ASSERT_TRUE(parseJournalJsonl(
      "{\"kind\":\"journal.meta\",\"schema\":1,\"recorded\":2,"
      "\"dropped\":0}\n"
      "{\"id\":1,\"kind\":\"arrival\",\"tick\":0,\"job\":1}\n"
      "{\"id\":2,\"kind\":\"commit\",\"tick\":5,\"job\":1,\"cause\":9}\n",
      J, Error))
      << Error;
  std::vector<std::string> V = validateJournal(J);
  ASSERT_EQ(V.size(), 1u);
  EXPECT_NE(V[0].find("does not precede"), std::string::npos) << V[0];

  // A trigger must reference an env.change.
  ASSERT_TRUE(parseJournalJsonl(
      "{\"kind\":\"journal.meta\",\"schema\":1,\"recorded\":2,"
      "\"dropped\":0}\n"
      "{\"id\":1,\"kind\":\"arrival\",\"tick\":0,\"job\":1}\n"
      "{\"id\":2,\"kind\":\"reallocate\",\"tick\":5,\"job\":1,"
      "\"cause\":1,\"trigger\":1}\n",
      J, Error))
      << Error;
  V = validateJournal(J);
  ASSERT_EQ(V.size(), 1u);
  EXPECT_NE(V[0].find("not an env.change"), std::string::npos) << V[0];

  // Meta counts must match the surviving events.
  ASSERT_TRUE(parseJournalJsonl(
      "{\"kind\":\"journal.meta\",\"schema\":1,\"recorded\":5,"
      "\"dropped\":0}\n"
      "{\"id\":1,\"kind\":\"note\",\"tick\":0}\n",
      J, Error))
      << Error;
  EXPECT_FALSE(validateJournal(J).empty());
}

} // namespace

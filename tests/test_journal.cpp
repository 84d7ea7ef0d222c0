//===-- tests/test_journal.cpp - Decision journal tests -------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "obs/Journal.h"
#include "obs/Metrics.h"
#include "obs/Profiler.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace cws;
using namespace cws::obs;

namespace {

class JournalTest : public ::testing::Test {
protected:
  void SetUp() override { Journal::global().reset(); }
  void TearDown() override { Journal::global().reset(); }
};

TEST_F(JournalTest, DisabledAppendIsANoOp) {
  Journal &Jn = Journal::global();
  EXPECT_FALSE(Jn.enabled());
  EXPECT_EQ(Jn.append(JournalKind::Arrival, 1, 10), 0u);
  EXPECT_EQ(Jn.recorded(), 0u);
  EXPECT_TRUE(Jn.snapshot().empty());
}

TEST_F(JournalTest, KindNamesRoundTrip) {
  for (size_t I = 0; I < JournalKindCount; ++I) {
    auto Kind = static_cast<JournalKind>(I);
    const char *Name = journalKindName(Kind);
    ASSERT_NE(Name, nullptr);
    JournalKind Back;
    ASSERT_TRUE(journalKindFromName(Name, Back)) << Name;
    EXPECT_EQ(Back, Kind);
  }
  JournalKind Out;
  EXPECT_FALSE(journalKindFromName("no-such-kind", Out));
}

TEST_F(JournalTest, CausalChainLinksPerJob) {
  Journal &Jn = Journal::global();
  Jn.enable(64);
  uint64_t A1 = Jn.append(JournalKind::Arrival, 7, 10, {}, nullptr, 2);
  uint64_t B1 = Jn.append(JournalKind::Arrival, 8, 11, {}, nullptr, 3);
  uint64_t A2 = Jn.append(JournalKind::Admission, 7, 10);
  uint64_t A3 = Jn.append(JournalKind::Commit, 7, 25);
  uint64_t B2 = Jn.append(JournalKind::Reject, 8, 12);
  Jn.disable();
  std::vector<JournalEvent> E = Jn.snapshot();
  ASSERT_EQ(E.size(), 5u);
  // Ids are 1-based and dense.
  EXPECT_EQ(A1, 1u);
  EXPECT_EQ(B1, 2u);
  // Chain heads have no cause; later events point to the same job's
  // previous event, never across jobs.
  EXPECT_EQ(E[0].Cause, 0u);
  EXPECT_EQ(E[1].Cause, 0u);
  EXPECT_EQ(E[2].Cause, A1);
  EXPECT_EQ(E[3].Cause, A2);
  EXPECT_EQ(E[4].Cause, B1);
  EXPECT_EQ(A3, E[3].Id);
  EXPECT_EQ(B2, E[4].Id);
}

TEST_F(JournalTest, FlowIsInheritedFromTheArrivalEvent) {
  Journal &Jn = Journal::global();
  Jn.enable(64);
  Jn.append(JournalKind::Arrival, 5, 0, {}, nullptr, /*FlowId=*/4);
  Jn.append(JournalKind::Admission, 5, 0);
  Jn.append(JournalKind::Commit, 5, 9);
  // A different job without a registered flow stays at -1.
  Jn.append(JournalKind::Admission, 6, 1);
  Jn.disable();
  std::vector<JournalEvent> E = Jn.snapshot();
  ASSERT_EQ(E.size(), 4u);
  EXPECT_EQ(E[0].FlowId, 4);
  EXPECT_EQ(E[1].FlowId, 4);
  EXPECT_EQ(E[2].FlowId, 4);
  EXPECT_EQ(E[3].FlowId, -1);
}

TEST_F(JournalTest, InvalidateAndReallocateAutoTriggerOnLastEnvChange) {
  Journal &Jn = Journal::global();
  Jn.enable(64);
  Jn.append(JournalKind::Arrival, 3, 0);
  uint64_t Env1 = Jn.append(JournalKind::EnvChange, -1, 5, {{"node", 2}});
  EXPECT_EQ(Jn.lastEnvChange(), Env1);
  Jn.append(JournalKind::Invalidate, 3, 5);
  uint64_t Env2 = Jn.append(JournalKind::EnvChange, -1, 8, {{"node", 4}});
  Jn.append(JournalKind::Reallocate, 3, 9);
  // Other kinds never auto-trigger.
  Jn.append(JournalKind::Commit, 3, 12);
  Jn.disable();
  std::vector<JournalEvent> E = Jn.snapshot();
  ASSERT_EQ(E.size(), 6u);
  EXPECT_EQ(E[2].Trigger, Env1);
  EXPECT_EQ(E[4].Trigger, Env2);
  EXPECT_EQ(E[5].Trigger, 0u);
}

TEST_F(JournalTest, RingOverflowKeepsNewestAndCountsDropped) {
  Journal &Jn = Journal::global();
  Jn.enable(8);
  for (int64_t I = 0; I < 20; ++I)
    Jn.append(JournalKind::Note, I, I, {{"i", I}});
  Jn.disable();
  EXPECT_EQ(Jn.recorded(), 20u);
  EXPECT_EQ(Jn.dropped(), 12u);
  std::vector<JournalEvent> E = Jn.snapshot();
  ASSERT_EQ(E.size(), 8u);
  // Survivors are the newest 8 in append order (ids 13..20).
  for (size_t I = 0; I < E.size(); ++I) {
    EXPECT_EQ(E[I].Id, 13 + I);
    ASSERT_EQ(E[I].ArgCount, 1u);
    EXPECT_EQ(E[I].Args[0].Value, static_cast<int64_t>(12 + I));
  }
}

TEST_F(JournalTest, JsonlRoundTripPreservesEveryField) {
  Journal &Jn = Journal::global();
  Jn.enable(64);
  Jn.append(JournalKind::Arrival, 9, 100, {{"deadline", 900}, {"tasks", 5}},
            "S2", /*FlowId=*/1);
  Jn.append(JournalKind::EnvChange, -1, 110,
            {{"node", 3}, {"start", 110}, {"end", 140}}, "background");
  Jn.append(JournalKind::Invalidate, 9, 111, {{"ttl", 11}}, "stale");
  Jn.append(JournalKind::Reject, 9, 112, {}, "stale-inadmissible");
  Jn.disable();

  ParsedJournal P;
  std::string Error;
  ASSERT_TRUE(parseJournalJsonl(Jn.jsonl(), P, Error)) << Error;
  EXPECT_EQ(P.Recorded, 4u);
  EXPECT_EQ(P.Dropped, 0u);
  ASSERT_EQ(P.Events.size(), 4u);

  const ParsedJournalEvent &A = P.Events[0];
  EXPECT_EQ(A.Id, 1u);
  EXPECT_EQ(A.Kind, "arrival");
  EXPECT_EQ(A.JobId, 9);
  EXPECT_EQ(A.FlowId, 1);
  EXPECT_EQ(A.At, 100);
  EXPECT_EQ(A.Cause, 0u);
  EXPECT_EQ(A.Detail, "S2");
  ASSERT_NE(A.arg("deadline"), nullptr);
  EXPECT_EQ(*A.arg("deadline"), 900);
  ASSERT_NE(A.arg("tasks"), nullptr);
  EXPECT_EQ(*A.arg("tasks"), 5);
  EXPECT_EQ(A.arg("absent"), nullptr);

  const ParsedJournalEvent &Env = P.Events[1];
  EXPECT_EQ(Env.Kind, "env.change");
  EXPECT_EQ(Env.JobId, -1);
  EXPECT_EQ(Env.FlowId, -1);

  const ParsedJournalEvent &Inv = P.Events[2];
  EXPECT_EQ(Inv.Kind, "invalidate");
  EXPECT_EQ(Inv.Cause, 1u);
  EXPECT_EQ(Inv.Trigger, 2u);
  EXPECT_EQ(Inv.FlowId, 1);

  const ParsedJournalEvent &Rej = P.Events[3];
  EXPECT_EQ(Rej.Kind, "reject");
  EXPECT_EQ(Rej.Cause, 3u);
  EXPECT_EQ(Rej.Detail, "stale-inadmissible");

  // byId is a binary search over ascending ids.
  ASSERT_NE(P.byId(3), nullptr);
  EXPECT_EQ(P.byId(3)->Kind, "invalidate");
  EXPECT_EQ(P.byId(99), nullptr);
}

TEST_F(JournalTest, ProvenanceStampRoundTripsThroughTheMetaLine) {
  Journal &Jn = Journal::global();
  RunProvenance Plain;
  Plain.Stamped = true;
  Plain.Seed = 42;
  Plain.ConfigHash = configHashOf("canonical text");
  Plain.ScenarioId = "arrival_scale=2.0+strategy=S1";
  Plain.Cli = "cws-sim --seed 42 --scenario \"x\"";
  Plain.Shards = 4;
  // A seed a double cannot hold, and control characters in the CLI.
  RunProvenance Exact = Plain;
  Exact.Seed = 9007199254740993ull;
  Exact.Cli = "cws-sim\r--seed\t9007199254740993\x01";
  for (const RunProvenance &Prov : {Plain, Exact}) {
    Jn.reset();
    Jn.enable(16);
    Jn.setProvenance(Prov);
    Jn.append(JournalKind::Note, 1, 5);
    Jn.disable();

    ParsedJournal P;
    std::string Error;
    ASSERT_TRUE(parseJournalJsonl(Jn.jsonl(), P, Error)) << Error;
    ASSERT_TRUE(P.Prov.valid());
    EXPECT_EQ(P.Prov.Seed, Prov.Seed);
    EXPECT_EQ(P.Prov.ConfigHash, Prov.ConfigHash);
    EXPECT_EQ(P.Prov.ScenarioId, Prov.ScenarioId);
    EXPECT_EQ(P.Prov.Cli, Prov.Cli);
    EXPECT_EQ(P.Prov.Shards, 4);
    EXPECT_TRUE(P.Prov.sameScenario(Prov));

    // The journal and profile headers both escape the CLI with the one
    // JSON escaper.
    std::string Cli = json::quote(Prov.Cli);
    Profiler &Prof = Profiler::global();
    Prof.setProvenance(Prov);
    EXPECT_NE(Jn.jsonl().find("\"cli\":" + Cli), std::string::npos);
    EXPECT_NE(Prof.json().find("\"cli\": " + Cli), std::string::npos);
    Prof.reset();
  }
  EXPECT_NE(json::quote(Exact.Cli).find("\\r--seed\\t9007199254740993\\u0001"),
            std::string::npos);

  ParsedJournal P;
  std::string Error;
  // An unstamped journal parses with no provenance; a partial stamp
  // (provenance strings without a seed) is rejected.
  Jn.reset();
  Jn.enable(16);
  Jn.append(JournalKind::Note, 1, 5);
  Jn.disable();
  ASSERT_TRUE(parseJournalJsonl(Jn.jsonl(), P, Error)) << Error;
  EXPECT_FALSE(P.Prov.valid());
  EXPECT_FALSE(parseJournalJsonl(
      "{\"kind\":\"journal.meta\",\"schema\":1,\"recorded\":0,"
      "\"dropped\":0,\"scenario\":\"s\"}\n",
      P, Error));
  EXPECT_NE(Error.find("seed"), std::string::npos) << Error;
}

TEST_F(JournalTest, JsonlMetaReportsRingLosses) {
  Journal &Jn = Journal::global();
  Jn.enable(4);
  for (int64_t I = 0; I < 10; ++I)
    Jn.append(JournalKind::Note, 1, I);
  Jn.disable();
  ParsedJournal P;
  std::string Error;
  ASSERT_TRUE(parseJournalJsonl(Jn.jsonl(), P, Error)) << Error;
  EXPECT_EQ(P.Recorded, 10u);
  EXPECT_EQ(P.Dropped, 6u);
  ASSERT_EQ(P.Events.size(), 4u);
  EXPECT_EQ(P.Events.front().Id, 7u);
  // The surviving chain tail references dropped events; the parser
  // keeps the dangling id so validators can decide.
  EXPECT_EQ(P.Events.front().Cause, 6u);
}

TEST_F(JournalTest, ParserRejectsMalformedInput) {
  ParsedJournal P;
  std::string Error;
  EXPECT_FALSE(parseJournalJsonl("not json\n", P, Error));
  EXPECT_NE(Error.find("line 1"), std::string::npos) << Error;

  // Wrong schema version.
  EXPECT_FALSE(parseJournalJsonl(
      "{\"kind\":\"journal.meta\",\"schema\":2,\"recorded\":0,"
      "\"dropped\":0}\n",
      P, Error));

  // An event missing its id.
  EXPECT_FALSE(parseJournalJsonl(
      "{\"kind\":\"journal.meta\",\"schema\":1,\"recorded\":1,"
      "\"dropped\":0}\n{\"kind\":\"note\",\"tick\":3}\n",
      P, Error));
  EXPECT_NE(Error.find("line 2"), std::string::npos) << Error;

  // A non-integer tick, and a field outside the schema.
  EXPECT_FALSE(parseJournalJsonl(
      "{\"kind\":\"journal.meta\",\"schema\":1,\"recorded\":1,"
      "\"dropped\":0}\n{\"id\":1,\"kind\":\"note\",\"tick\":3.5}\n",
      P, Error));
  EXPECT_NE(Error.find("line 2"), std::string::npos) << Error;
  EXPECT_FALSE(parseJournalJsonl(
      "{\"kind\":\"journal.meta\",\"schema\":1,\"recorded\":1,"
      "\"dropped\":0}\n{\"id\":1,\"kind\":\"note\",\"tick\":3,"
      "\"bogus\":1}\n",
      P, Error));
  EXPECT_NE(Error.find("unknown field 'bogus'"), std::string::npos) << Error;
}

TEST_F(JournalTest, ReenableClearsCausalBookkeeping) {
  Journal &Jn = Journal::global();
  Jn.enable(16);
  Jn.append(JournalKind::Arrival, 5, 0, {}, nullptr, 2);
  Jn.append(JournalKind::EnvChange, -1, 1);
  Jn.enable(16);
  // Job 5's chain and flow and the env-change id must not leak into the
  // fresh recording.
  Jn.append(JournalKind::Invalidate, 5, 2);
  Jn.disable();
  std::vector<JournalEvent> E = Jn.snapshot();
  ASSERT_EQ(E.size(), 1u);
  EXPECT_EQ(E[0].Id, 1u);
  EXPECT_EQ(E[0].Cause, 0u);
  EXPECT_EQ(E[0].Trigger, 0u);
  EXPECT_EQ(E[0].FlowId, -1);
}

TEST_F(JournalTest, PublishJournalStatsExportsLossCounters) {
  Journal &Jn = Journal::global();
  Jn.enable(4);
  for (int64_t I = 0; I < 6; ++I)
    Jn.append(JournalKind::Note, 1, I);
  Jn.disable();
  Registry R;
  publishJournalStats(R);
  std::string Text = R.prometheusText();
  EXPECT_NE(Text.find("cws_journal_recorded_total 6"), std::string::npos)
      << Text;
  EXPECT_NE(Text.find("cws_journal_dropped_total 2"), std::string::npos)
      << Text;
}

} // namespace

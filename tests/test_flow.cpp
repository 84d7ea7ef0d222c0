//===-- tests/test_flow.cpp - Job-flow level tests ------------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "flow/BackgroundLoad.h"
#include "flow/JobManager.h"
#include "flow/Metascheduler.h"
#include "flow/VirtualOrganization.h"
#include "metrics/Export.h"
#include "metrics/QoS.h"
#include "obs/Journal.h"
#include "obs/Metrics.h"
#include "obs/Provenance.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <utility>

using namespace cws;

namespace {

struct FlowFixture {
  Grid Env = Grid::makeFig2();
  Network Net;
  Economy Econ;
  unsigned User;
  StrategyConfig Config;
  Metascheduler Meta{Env, Net, Econ, Config};
  JobManager Manager{Meta, 0};

  FlowFixture() { User = Econ.addUser(1e9); }
};

/// A journaled multi-flow run rendered as everything downstream
/// consumers see: the journal JSONL plus every flow's per-job CSV.
std::string journaledRunText(const VoConfig &Config,
                             const std::vector<StrategyKind> &Kinds,
                             uint64_t Seed) {
  obs::Journal &Jn = obs::Journal::global();
  Jn.reset();
  Jn.enable();
  std::vector<VoRunResult> Results = runMultiFlowVo(Config, Kinds, Seed);
  Jn.disable();
  std::string Text = Jn.jsonl();
  Jn.reset();
  for (const VoRunResult &R : Results)
    Text += voStatsCsv(R.Jobs);
  return Text;
}

} // namespace

TEST(Metascheduler, OwnerIdsAreDisjointFromBackground) {
  EXPECT_GT(Metascheduler::ownerOf(0), BackgroundOwner);
  EXPECT_NE(Metascheduler::ownerOf(3), Metascheduler::ownerOf(4));
}

TEST(Metascheduler, CommitReservesAndCharges) {
  FlowFixture F;
  Job J = makeFig2Job();
  Strategy S = F.Meta.buildStrategy(J, 0);
  const ScheduleVariant *Best = S.bestByCost();
  ASSERT_NE(Best, nullptr);
  EXPECT_TRUE(F.Meta.commit(J, *Best, F.User));
  EXPECT_GT(F.Econ.spent(F.User), 0.0);
  EXPECT_FALSE(Best->Result.Dist.fitsGrid(F.Env));
  EXPECT_TRUE(
      Best->Result.Dist.fitsGrid(F.Env, Metascheduler::ownerOf(J.id())));
}

TEST(Metascheduler, CommitFailsWithoutQuota) {
  Grid Env = Grid::makeFig2();
  Network Net;
  Economy Econ;
  unsigned Broke = Econ.addUser(0.01);
  Metascheduler Meta(Env, Net, Econ, StrategyConfig{});
  Job J = makeFig2Job();
  Strategy S = Meta.buildStrategy(J, 0);
  const ScheduleVariant *Best = S.bestByCost();
  ASSERT_NE(Best, nullptr);
  EXPECT_FALSE(Meta.commit(J, *Best, Broke));
  // Nothing reserved, nothing charged.
  EXPECT_DOUBLE_EQ(Econ.spent(Broke), 0.0);
  EXPECT_TRUE(Best->Result.Dist.fitsGrid(Env));
}

TEST(Metascheduler, ReallocateReleasesOldReservations) {
  FlowFixture F;
  Job J = makeFig2Job();
  Strategy S = F.Meta.buildStrategy(J, 0);
  ASSERT_TRUE(F.Meta.commit(J, *S.bestByCost(), F.User));
  ReallocationResult Fresh = F.Meta.reallocate(J, S, F.User, 5);
  EXPECT_TRUE(Fresh.admissible());
  // Nothing was broken, so the repair stages decline and the rebuild
  // serves the request.
  EXPECT_EQ(Fresh.Stage, RepairStage::Rebuild);
  // Old reservations are gone.
  for (const auto &N : F.Env.nodes())
    for (const auto &I : N.timeline().intervals())
      EXPECT_NE(I.Owner, Metascheduler::ownerOf(J.id()));
}

TEST(Metascheduler, ReallocatingANeverCommittedJobLeavesTheGridAsItIs) {
  // Only a commit puts a job's reservations into the environment, so a
  // reallocation of a job that was never committed releases nothing:
  // not even an interval reserved under its owner id by other means.
  FlowFixture F;
  Job J = makeFig2Job();
  Strategy S = F.Meta.buildStrategy(J, 0);
  ASSERT_TRUE(
      F.Env.node(0).timeline().reserve(90, 95, Metascheduler::ownerOf(J.id())));
  std::vector<std::vector<Interval>> Before;
  for (const auto &N : F.Env.nodes())
    Before.push_back(N.timeline().intervals());
  ReallocationResult R = F.Meta.reallocate(J, S, F.User, 5);
  EXPECT_TRUE(R.admissible());
  ASSERT_EQ(F.Env.nodes().size(), Before.size());
  for (size_t Id = 0; Id < Before.size(); ++Id) {
    const std::vector<Interval> &After = F.Env.nodes()[Id].timeline().intervals();
    ASSERT_EQ(After.size(), Before[Id].size()) << "node " << Id;
    for (size_t K = 0; K < After.size(); ++K) {
      EXPECT_EQ(After[K].Begin, Before[Id][K].Begin);
      EXPECT_EQ(After[K].End, Before[Id][K].End);
      EXPECT_EQ(After[K].Owner, Before[Id][K].Owner);
    }
  }
}

TEST(JobManager, AdmissibleArrivalIsTracked) {
  FlowFixture F;
  EXPECT_TRUE(F.Manager.onArrival(makeFig2Job(), 0));
  EXPECT_EQ(F.Manager.activeCount(), 1u);
  ASSERT_EQ(F.Manager.stats().size(), 1u);
  const VoJobStats &St = F.Manager.stats()[0];
  EXPECT_TRUE(St.Admissible);
  EXPECT_FALSE(St.Committed);
  EXPECT_EQ(St.Deadline, 20);
}

TEST(JobManager, InadmissibleArrivalRetiresImmediately) {
  FlowFixture F;
  Job J = makeFig2Job();
  J.setDeadline(4);
  EXPECT_FALSE(F.Manager.onArrival(J, 0));
  EXPECT_EQ(F.Manager.activeCount(), 0u);
  const VoJobStats &St = F.Manager.stats()[0];
  EXPECT_FALSE(St.Admissible);
  EXPECT_TRUE(St.TtlClosed);
  EXPECT_EQ(St.Ttl, 0);
}

TEST(JobManager, NegotiationCommitsAndCompletes) {
  FlowFixture F;
  Job J = makeFig2Job();
  ASSERT_TRUE(F.Manager.onArrival(J, 0));
  std::optional<Tick> Completion = F.Manager.onNegotiation(J.id(), 3);
  ASSERT_TRUE(Completion.has_value());
  const VoJobStats &St = F.Manager.stats()[0];
  EXPECT_TRUE(St.Committed);
  EXPECT_EQ(St.Completion, *Completion);
  EXPECT_GT(St.Cost, 0.0);
  EXPECT_GT(St.Cf, 0);
  F.Manager.onCompletion(J.id(), *Completion);
  EXPECT_EQ(F.Manager.activeCount(), 0u);
  EXPECT_TRUE(F.Manager.stats()[0].TtlClosed);
  EXPECT_EQ(F.Manager.stats()[0].Ttl, *Completion);
}

TEST(JobManager, StaleStrategyRecoversByShifting) {
  FlowFixture F;
  Job J = makeFig2Job();
  J.setDeadline(60); // Roomy deadline so a shifted schedule still fits.
  ASSERT_TRUE(F.Manager.onArrival(J, 0));
  // Invalidate every variant by filling all nodes during the window the
  // variants planned in.
  for (auto &N : F.Env.nodes())
    N.timeline().reserve(0, 25, BackgroundOwner);
  std::optional<Tick> Completion = F.Manager.onNegotiation(J.id(), 2);
  const VoJobStats &St = F.Manager.stats()[0];
  EXPECT_TRUE(St.TtlClosed);
  EXPECT_EQ(St.Ttl, 2);
  ASSERT_TRUE(Completion.has_value());
  // The cheapest recovery is shifting a stale supporting schedule past
  // the blockade — no reallocation needed.
  EXPECT_TRUE(St.ShiftRecovered);
  EXPECT_FALSE(St.Reallocated);
  EXPECT_TRUE(St.Switched);
  EXPECT_GE(St.CommitShift, 25 - 18); // Makespans are at most 18.
  EXPECT_GE(St.ActualStart, 25);
  EXPECT_LE(St.Completion, 60);
}

TEST(JobManager, RejectedWhenNeitherShiftNorReallocationFits) {
  FlowFixture F;
  Job J = makeFig2Job();
  J.setDeadline(60);
  ASSERT_TRUE(F.Manager.onArrival(J, 0));
  // Blockade so long that neither a shifted schedule nor a fresh one
  // can complete by the deadline.
  for (auto &N : F.Env.nodes())
    N.timeline().reserve(0, 55, BackgroundOwner);
  std::optional<Tick> Completion = F.Manager.onNegotiation(J.id(), 2);
  EXPECT_FALSE(Completion.has_value());
  const VoJobStats &St = F.Manager.stats()[0];
  EXPECT_TRUE(St.Rejected);
  EXPECT_FALSE(St.Committed);
  EXPECT_TRUE(St.TtlClosed);
}

TEST(JobManager, EnvironmentChangeClosesTtl) {
  FlowFixture F;
  Job J = makeFig2Job();
  ASSERT_TRUE(F.Manager.onArrival(J, 0));
  // Saturate the grid: no variant fits anymore.
  for (auto &N : F.Env.nodes())
    N.timeline().reserve(0, 100, BackgroundOwner);
  F.Manager.onEnvironmentChange(7);
  const VoJobStats &St = F.Manager.stats()[0];
  EXPECT_TRUE(St.TtlClosed);
  EXPECT_EQ(St.Ttl, 7);
}

TEST(JobManager, TtlSurvivesWhileVariantsFit) {
  FlowFixture F;
  ASSERT_TRUE(F.Manager.onArrival(makeFig2Job(), 0));
  F.Manager.onEnvironmentChange(5); // Nothing changed: still fits.
  EXPECT_FALSE(F.Manager.stats()[0].TtlClosed);
}

TEST(BackgroundLoad, GeneratesReservationsAndNotifies) {
  Grid Env = Grid::makeFig2();
  Simulator Sim;
  BackgroundConfig Config;
  Config.MeanGapFast = 5;
  Config.MeanGapMedium = 5;
  Config.MeanGapSlow = 5;
  BackgroundLoad Load(Env, Sim, Config, Prng(1));
  size_t Notifications = 0;
  Load.setObserver([&](Tick) { ++Notifications; });
  Load.start(200);
  Sim.run();
  EXPECT_GT(Load.placed(), 0u);
  EXPECT_EQ(Notifications, Load.placed());
  size_t Reserved = 0;
  for (const auto &N : Env.nodes())
    for (const auto &I : N.timeline().intervals()) {
      EXPECT_EQ(I.Owner, BackgroundOwner);
      ++Reserved;
    }
  EXPECT_EQ(Reserved, Load.placed());
}

TEST(BackgroundLoad, IsDeterministic) {
  auto Run = [] {
    Grid Env = Grid::makeFig2();
    Simulator Sim;
    BackgroundLoad Load(Env, Sim, BackgroundConfig{}, Prng(9));
    Load.start(300);
    Sim.run();
    return Load.placed();
  };
  EXPECT_EQ(Run(), Run());
}

TEST(VirtualOrganization, SmallRunProducesConsistentStats) {
  VoConfig Config;
  Config.JobCount = 25;
  VoRunResult R = runVirtualOrganization(Config, StrategyKind::S1, 7);
  EXPECT_EQ(R.Jobs.size(), 25u);
  EXPECT_GT(R.BackgroundJobs, 0u);
  EXPECT_GT(R.Horizon, 0);
  for (const auto &St : R.Jobs) {
    if (St.Committed) {
      EXPECT_TRUE(St.Admissible);
      EXPECT_FALSE(St.Rejected);
      EXPECT_GE(St.ActualStart, St.Arrival);
      EXPECT_GT(St.Completion, St.ActualStart);
      EXPECT_LE(St.Completion, St.Deadline);
      EXPECT_GT(St.Cost, 0.0);
    }
    if (St.TtlClosed) {
      EXPECT_GE(St.Ttl, 0);
    }
  }
}

TEST(VirtualOrganization, SameSeedSameOutcome) {
  VoConfig Config;
  Config.JobCount = 15;
  VoRunResult A = runVirtualOrganization(Config, StrategyKind::S2, 13);
  VoRunResult B = runVirtualOrganization(Config, StrategyKind::S2, 13);
  ASSERT_EQ(A.Jobs.size(), B.Jobs.size());
  for (size_t I = 0; I < A.Jobs.size(); ++I) {
    EXPECT_EQ(A.Jobs[I].Committed, B.Jobs[I].Committed);
    EXPECT_EQ(A.Jobs[I].Completion, B.Jobs[I].Completion);
    EXPECT_EQ(A.Jobs[I].Ttl, B.Jobs[I].Ttl);
  }
  EXPECT_EQ(A.BackgroundJobs, B.BackgroundJobs);
}

TEST(MultiFlowVo, DealsJobsRoundRobin) {
  VoConfig Config;
  Config.JobCount = 30;
  std::vector<VoRunResult> Results = runMultiFlowVo(
      Config, {StrategyKind::S1, StrategyKind::S2, StrategyKind::S3}, 5);
  ASSERT_EQ(Results.size(), 3u);
  for (const auto &Run : Results)
    EXPECT_EQ(Run.Jobs.size(), 10u);
  // Job ids are disjoint across flows.
  std::set<unsigned> Seen;
  for (const auto &Run : Results)
    for (const auto &St : Run.Jobs)
      EXPECT_TRUE(Seen.insert(St.JobId).second);
  EXPECT_EQ(Seen.size(), 30u);
}

TEST(MultiFlowVo, SingleFlowMatchesRunVirtualOrganization) {
  VoConfig Config;
  Config.JobCount = 20;
  VoRunResult Single = runVirtualOrganization(Config, StrategyKind::S2, 9);
  std::vector<VoRunResult> Multi =
      runMultiFlowVo(Config, {StrategyKind::S2}, 9);
  ASSERT_EQ(Multi.size(), 1u);
  ASSERT_EQ(Single.Jobs.size(), Multi[0].Jobs.size());
  for (size_t I = 0; I < Single.Jobs.size(); ++I) {
    EXPECT_EQ(Single.Jobs[I].Committed, Multi[0].Jobs[I].Committed);
    EXPECT_EQ(Single.Jobs[I].Completion, Multi[0].Jobs[I].Completion);
    EXPECT_EQ(Single.Jobs[I].Ttl, Multi[0].Jobs[I].Ttl);
  }
}

TEST(MultiFlowVo, FlowsShareTheEnvironment) {
  VoConfig Config;
  Config.JobCount = 40;
  std::vector<VoRunResult> Results = runMultiFlowVo(
      Config, {StrategyKind::S1, StrategyKind::S2}, 17);
  // Both flows committed work, and the shared horizon is identical.
  EXPECT_EQ(Results[0].Horizon, Results[1].Horizon);
  EXPECT_EQ(Results[0].BackgroundJobs, Results[1].BackgroundJobs);
  double Load0 = Results[0].JobLoadPercent[0] +
                 Results[0].JobLoadPercent[1] + Results[0].JobLoadPercent[2];
  double Load1 = Results[1].JobLoadPercent[0] +
                 Results[1].JobLoadPercent[1] + Results[1].JobLoadPercent[2];
  EXPECT_GT(Load0, 0.0);
  EXPECT_GT(Load1, 0.0);
}

TEST(JobManager, ShiftRecoveryStatsFlowIntoAggregates) {
  VoConfig Config = VoConfig{};
  Config.JobCount = 60;
  VoRunResult Run = runVirtualOrganization(Config, StrategyKind::S1, 23);
  VoAggregates A = summarizeVo(Run);
  // Consistency: shift-recovered jobs are committed and switched.
  for (const auto &St : Run.Jobs)
    if (St.ShiftRecovered) {
      EXPECT_TRUE(St.Committed);
      EXPECT_TRUE(St.Switched);
      EXPECT_GT(St.CommitShift, 0);
    }
  EXPECT_GE(A.ShiftRecoveredPercent, 0.0);
}

TEST(VirtualOrganization, ExecutionOptInRecordsActuals) {
  VoConfig Config;
  Config.JobCount = 30;
  Config.ExecuteWithDeviations = true;
  Config.Execution.FactorLo = 0.6;
  Config.Execution.FactorHi = 1.0; // Never overruns: no kills possible.
  VoRunResult R = runVirtualOrganization(Config, StrategyKind::S1, 31);
  size_t Executed = 0;
  for (const auto &St : R.Jobs) {
    if (!St.Committed)
      continue;
    ++Executed;
    EXPECT_FALSE(St.ExecutionKilled);
    EXPECT_GT(St.ActualCompletion, 0);
    EXPECT_LE(St.ActualCompletion, St.Completion);
  }
  EXPECT_GT(Executed, 0u);
}

TEST(VirtualOrganization, ExecutionOffLeavesActualsZero) {
  VoConfig Config;
  Config.JobCount = 15;
  VoRunResult R = runVirtualOrganization(Config, StrategyKind::S1, 31);
  for (const auto &St : R.Jobs) {
    EXPECT_EQ(St.ActualCompletion, 0);
    EXPECT_FALSE(St.ExecutionKilled);
  }
}

TEST(VirtualOrganization, ExecutionIsDeterministic) {
  VoConfig Config;
  Config.JobCount = 15;
  Config.ExecuteWithDeviations = true;
  VoRunResult A = runVirtualOrganization(Config, StrategyKind::S2, 33);
  VoRunResult B = runVirtualOrganization(Config, StrategyKind::S2, 33);
  for (size_t I = 0; I < A.Jobs.size(); ++I)
    EXPECT_EQ(A.Jobs[I].ActualCompletion, B.Jobs[I].ActualCompletion);
}

TEST(VirtualOrganization, LoadPercentagesAreSane) {
  VoConfig Config;
  Config.JobCount = 25;
  VoRunResult R = runVirtualOrganization(Config, StrategyKind::S1, 3);
  for (size_t G = 0; G < 3; ++G) {
    EXPECT_GE(R.JobLoadPercent[G], 0.0);
    EXPECT_LE(R.JobLoadPercent[G], 100.0);
    EXPECT_GE(R.BackgroundLoadPercent[G], 0.0);
    EXPECT_LE(R.BackgroundLoadPercent[G], 100.0);
  }
}

TEST(VirtualOrganization, PinnedDigestOfBurstyMultiFlowRuns) {
  // The job-flow level's byte-identity oracle. Bursty arrivals put
  // several jobs of competing flows into one tick's admission and commit
  // drains, plus execution with deviations and the rebuild reallocation
  // mode. A change that is meant to leave every decision as it is must
  // leave this constant as it is.
  obs::Counter &Batches =
      obs::Registry::global().counter("cws_shard_admission_batches_total");
  obs::Counter &Admitted =
      obs::Registry::global().counter("cws_shard_admission_jobs_total");
  const uint64_t Batches0 = Batches.value();
  const uint64_t Admitted0 = Admitted.value();

  VoConfig Base;
  Base.JobCount = 36;
  Base.InterarrivalLo = 0;
  Base.InterarrivalHi = 6;
  const std::vector<StrategyKind> TwoFlows = {StrategyKind::S1,
                                              StrategyKind::S3};
  const std::vector<StrategyKind> FourFlows = {
      StrategyKind::S1, StrategyKind::S2, StrategyKind::S3,
      StrategyKind::MS1};
  std::string Text;
  for (const std::vector<StrategyKind> *Kinds : {&TwoFlows, &FourFlows})
    for (uint64_t Seed : {3u, 7u, 11u})
      Text += journaledRunText(Base, *Kinds, Seed);
  VoConfig Exec = Base;
  Exec.ExecuteWithDeviations = true;
  Text += journaledRunText(Exec, FourFlows, /*Seed=*/5);
  VoConfig Rebuild = Base;
  Rebuild.Reallocation = ReallocationMode::Rebuild;
  Text += journaledRunText(Rebuild, FourFlows, /*Seed=*/7);

  // The drains really batch: more jobs than admission drains.
  EXPECT_GT(Admitted.value() - Admitted0, Batches.value() - Batches0);
  EXPECT_EQ(obs::fnv1a64(Text), 0x310b8fb64389c3b1ULL)
      << Text.size() << " bytes";
}

TEST(VirtualOrganization, PinnedDigestOfALongRun) {
  // The byte-identity oracle for a long history: 2,000 jobs at cws-sim's
  // defaults, where most of each node's reservations have ended by the
  // time a job is scheduled. The digest covers every job's outcome and
  // the newest journal events the ring holds. A change that is meant to
  // leave every decision as it is must leave this constant as it is.
  VoConfig Config;
  Config.JobCount = 2000;
  Config.Workload.DeadlineSlack = 2.0;
  std::string Text = journaledRunText(Config, {StrategyKind::S1}, /*Seed=*/7);
  EXPECT_EQ(obs::fnv1a64(Text), 0xedd91ed55ec57fdfULL)
      << Text.size() << " bytes";
}

TEST(VirtualOrganization, PinnedDigestOfTightSlackRuns) {
  // The byte-identity oracle at the feasibility edge of the job flow: at
  // deadline slack 1.3 many chain placements of strategy builds and of
  // stage-2 repairs find no path. Four competing flows, in both
  // reallocation modes. A change that is meant to leave every decision
  // as it is must leave this constant as it is.
  VoConfig Config;
  Config.JobCount = 400;
  Config.Workload.DeadlineSlack = 1.3;
  const std::vector<StrategyKind> Kinds = {StrategyKind::S1, StrategyKind::S2,
                                           StrategyKind::S3, StrategyKind::MS1};
  std::string Text;
  for (ReallocationMode Mode :
       {ReallocationMode::Repair, ReallocationMode::Rebuild}) {
    Config.Reallocation = Mode;
    Text += journaledRunText(Config, Kinds, /*Seed=*/7);
  }
  EXPECT_EQ(obs::fnv1a64(Text), 0xc618586e3bf49b9cULL)
      << Text.size() << " bytes";
}

TEST(VirtualOrganization, PinnedDigestOfTheFlowDrawnAtRelease) {
  // The byte-identity oracle of the job stream itself: each job is drawn
  // from the generator when it arrives, and must be the job the run
  // would have drawn up front. One long S1 flow; the benchmark's bursty
  // four-flow episodes over eight seeds; and execution with deviations
  // under back-to-back arrivals, where most ticks hold several jobs.
  auto StatsText = [](const VoConfig &Config,
                      const std::vector<StrategyKind> &Kinds, uint64_t Seed) {
    std::string Text;
    for (const VoRunResult &R : runMultiFlowVo(Config, Kinds, Seed))
      Text += voStatsCsv(R.Jobs);
    return Text;
  };
  std::string Text;
  VoConfig Long;
  Long.JobCount = 300;
  Text += StatsText(Long, {StrategyKind::S1}, /*Seed=*/7);

  VoConfig Burst;
  Burst.Workload.DeadlineSlack = 2.0;
  Burst.GridCfg.MinNodes = Burst.GridCfg.MaxNodes = 25;
  Burst.JobCount = 16;
  Burst.InterarrivalLo = 0;
  Burst.InterarrivalHi = 3;
  Burst.Background.MeanGapFast = 8;
  Burst.Background.MeanGapMedium = 14;
  Burst.Background.MeanGapSlow = 24;
  const std::vector<StrategyKind> FourFlows = {
      StrategyKind::S1, StrategyKind::S2, StrategyKind::S3,
      StrategyKind::MS1};
  for (uint64_t Seed = 1; Seed <= 8; ++Seed)
    Text += StatsText(Burst, FourFlows, Seed);

  VoConfig BackToBack;
  BackToBack.JobCount = 60;
  BackToBack.InterarrivalLo = 0;
  BackToBack.InterarrivalHi = 1;
  BackToBack.ExecuteWithDeviations = true;
  Text += StatsText(BackToBack, {StrategyKind::S1, StrategyKind::S3},
                    /*Seed=*/11);
  EXPECT_EQ(obs::fnv1a64(Text), 0x40edb25373069303ULL)
      << Text.size() << " bytes";
}

TEST(VirtualOrganization, QuotaHoldsAcrossASameTickCommitDrain) {
  // Commits of one flow that land in one end-of-tick drain each see the
  // debits of those before them. With a quota worth a handful of jobs,
  // a commit is denied right behind a same-tick commit of its own flow,
  // and no flow ever spends more than its quota.
  VoConfig Config;
  Config.JobCount = 36;
  Config.InterarrivalLo = 0;
  Config.InterarrivalHi = 3;
  Config.UserQuota = 700.0;
  obs::Journal &Jn = obs::Journal::global();
  Jn.reset();
  Jn.enable();
  std::vector<VoRunResult> Results =
      runMultiFlowVo(Config, {StrategyKind::S1, StrategyKind::S3}, 7);
  Jn.disable();
  std::vector<obs::JournalEvent> Events = Jn.snapshot();
  Jn.reset();

  // (flow, tick) pairs that already saw a successful commit attempt.
  std::set<std::pair<int32_t, int64_t>> Charged;
  size_t Denied = 0, DeniedBehindSameTickCommit = 0;
  for (const obs::JournalEvent &E : Events) {
    if (E.Kind != obs::JournalKind::CommitAttempt || !E.Detail)
      continue;
    if (std::strcmp(E.Detail, "ok") == 0) {
      Charged.insert({E.FlowId, E.At});
    } else if (std::strcmp(E.Detail, "quota-denied") == 0) {
      ++Denied;
      DeniedBehindSameTickCommit += Charged.count({E.FlowId, E.At});
    }
  }
  EXPECT_GT(Denied, 0u);
  EXPECT_GT(DeniedBehindSameTickCommit, 0u);

  for (const VoRunResult &R : Results) {
    double Spent = 0.0;
    size_t Committed = 0;
    for (const VoJobStats &St : R.Jobs)
      if (St.Committed) {
        Spent += St.Cost;
        ++Committed;
      }
    EXPECT_GT(Committed, 0u);
    EXPECT_LE(Spent, Config.UserQuota + 1e-9);
  }
}

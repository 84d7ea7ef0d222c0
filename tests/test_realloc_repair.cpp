//===-- tests/test_realloc_repair.cpp - Staged reallocation repair --------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the escalating staged repair behind reallocation: the
/// stage-1 single-slot shift and stage-2 DP re-run in isolation, the
/// build-then-swap guarantee of a failed reallocation, journal shape
/// (every reallocation records its resolution stage), run-to-run
/// determinism of both reallocation modes, and the by-rebuild repair
/// oracle.
///
//===----------------------------------------------------------------------===//

#include "core/Repair.h"
#include "flow/Metascheduler.h"
#include "flow/VirtualOrganization.h"
#include "obs/Journal.h"
#include "resource/Network.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace cws;

namespace {

class ReallocRepairTest : public ::testing::Test {
protected:
  void SetUp() override { obs::Journal::global().reset(); }
  void TearDown() override { obs::Journal::global().reset(); }
};

struct MetaFixture {
  Grid Env = Grid::makeFig2();
  Network Net;
  Economy Econ;
  unsigned User;
  StrategyConfig Config;
  Metascheduler Meta{Env, Net, Econ, Config};

  MetaFixture() { User = Econ.addUser(1e9); }
};

/// An owner id foreign to both the strategy under repair and the
/// figure's background load.
constexpr OwnerId Intruder = 7777;

/// The placement of \p V starting last — breaking it leaves the widest
/// forward window for the stage-1 shift.
const Placement &latestPlacement(const ScheduleVariant &V) {
  const auto &Ps = V.Result.Dist.placements();
  return *std::max_element(Ps.begin(), Ps.end(),
                           [](const Placement &A, const Placement &B) {
                             return A.Start < B.Start;
                           });
}

/// One journaled single-flow run; returns the raw journal bytes.
std::string voJournal(ReallocationMode Realloc, uint64_t Seed) {
  VoConfig Config;
  Config.JobCount = 36;
  // Bursty arrivals: overlapping active jobs make reallocations (and
  // with them the repair stages) actually fire.
  Config.InterarrivalLo = 0;
  Config.InterarrivalHi = 6;
  Config.Reallocation = Realloc;
  obs::Journal &Jn = obs::Journal::global();
  Jn.reset();
  Jn.enable();
  runVirtualOrganization(Config, StrategyKind::S1, Seed);
  Jn.disable();
  std::string Out = Jn.jsonl();
  Jn.reset();
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Stage 1: single-slot shift
//===----------------------------------------------------------------------===//

TEST_F(ReallocRepairTest, ShiftRepairsOneBrokenReservation) {
  // The chain job carries deadline slack (unlike the tight Fig. 2
  // schedule), so a forward shift of the sink has room to land.
  Grid Env = makeSmallGrid();
  Network Net;
  StrategyConfig Config;
  Job J = makeChainJob(400);
  Strategy S = Strategy::build(J, Env, Net, Config, /*Owner=*/42);
  ASSERT_TRUE(S.admissible());
  const ScheduleVariant *Best = S.bestByCost();
  ASSERT_NE(Best, nullptr);

  // Break exactly one reservation: a foreign reservation lands on the
  // latest-starting placement (the plan held this window free, so the
  // reserve cannot collide).
  const Placement Hit = latestPlacement(*Best);
  Env.node(Hit.NodeId).timeline().reserve(Hit.Start, Hit.End, Intruder);

  RepairInputs In{Env, Net, Config, /*Owner=*/42, /*Now=*/0};
  std::optional<VariantRepair> R = repairVariantByShift(J, *Best, In);
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(R->Stage, RepairStage::Shift);
  EXPECT_GT(R->ShiftDelta, 0);
  EXPECT_EQ(R->PlacementsPinned, Best->Result.Dist.placements().size() - 1);

  const Distribution &Fixed = R->Repaired.Result.Dist;
  expectValidDistribution(J, Fixed);
  EXPECT_LE(Fixed.makespan(), J.deadline());
  EXPECT_TRUE(Fixed.fitsGrid(Env, 42));

  // Exactly the hit placement moved — forward, on its node — and the
  // economic cost is invariant (it depends on node and duration only).
  size_t Moved = 0;
  for (const Placement &P : Best->Result.Dist.placements()) {
    const Placement *Q = Fixed.find(P.TaskId);
    ASSERT_NE(Q, nullptr);
    EXPECT_EQ(Q->NodeId, P.NodeId);
    EXPECT_EQ(Q->End - Q->Start, P.End - P.Start);
    if (Q->Start != P.Start) {
      ++Moved;
      EXPECT_EQ(P.TaskId, Hit.TaskId);
      EXPECT_GT(Q->Start, P.Start);
    }
  }
  EXPECT_EQ(Moved, 1u);
  EXPECT_DOUBLE_EQ(Fixed.economicCost(), Best->Result.Dist.economicCost());
}

TEST_F(ReallocRepairTest, ShiftDeclinesWithSeveralBrokenReservations) {
  Grid Env = Grid::makeFig2();
  Network Net;
  StrategyConfig Config;
  Job J = makeFig2Job();
  Strategy S = Strategy::build(J, Env, Net, Config, /*Owner=*/42);
  ASSERT_TRUE(S.admissible());
  const ScheduleVariant *Best = S.bestByCost();
  ASSERT_NE(Best, nullptr);
  ASSERT_GE(Best->Result.Dist.placements().size(), 2u);
  for (const Placement &P : Best->Result.Dist.placements())
    Env.node(P.NodeId).timeline().reserve(P.Start, P.End, Intruder);
  RepairInputs In{Env, Net, Config, /*Owner=*/42, /*Now=*/0};
  EXPECT_FALSE(repairVariantByShift(J, *Best, In).has_value());
}

//===----------------------------------------------------------------------===//
// Stage 2: DP re-run of the broken critical works
//===----------------------------------------------------------------------===//

TEST_F(ReallocRepairTest, DpRerunsTheBrokenWorkAndPinsSurvivors) {
  Grid Env = Grid::makeFig2();
  Network Net;
  StrategyConfig Config;
  Job J = makeFig2Job();
  Strategy S = Strategy::build(J, Env, Net, Config, /*Owner=*/42);
  ASSERT_TRUE(S.admissible());
  const ScheduleVariant *Best = S.bestByCost();
  ASSERT_NE(Best, nullptr);
  const std::vector<CriticalWork> &Phases = Best->Result.Phases;
  ASSERT_GT(Phases.size(), 1u);

  // Break every placement of the last critical work: several broken
  // slots (stage 1 declines), one broken phase, no pinned successors
  // to squeeze the re-run.
  const CriticalWork &Last = Phases.back();
  for (unsigned T : Last.TaskIds) {
    const Placement *P = Best->Result.Dist.find(T);
    ASSERT_NE(P, nullptr);
    Env.node(P->NodeId).timeline().reserve(P->Start, P->End, Intruder);
  }

  RepairInputs In{Env, Net, Config, /*Owner=*/42, /*Now=*/0};
  ASSERT_FALSE(repairVariantByShift(J, *Best, In).has_value());
  std::optional<VariantRepair> R = repairVariantByDp(J, *Best, In);
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(R->Stage, RepairStage::Dp);
  EXPECT_GE(R->WorksRerun, 1u);
  EXPECT_GT(R->PlacementsPinned, 0u);

  const Distribution &Fixed = R->Repaired.Result.Dist;
  expectValidDistribution(J, Fixed);
  EXPECT_LE(Fixed.makespan(), J.deadline());
  EXPECT_TRUE(Fixed.fitsGrid(Env, 42));

  // Survivors are pinned byte-for-byte; only the broken work moved.
  for (const Placement &P : Best->Result.Dist.placements()) {
    if (std::find(Last.TaskIds.begin(), Last.TaskIds.end(), P.TaskId) !=
        Last.TaskIds.end())
      continue;
    const Placement *Q = Fixed.find(P.TaskId);
    ASSERT_NE(Q, nullptr);
    EXPECT_EQ(Q->NodeId, P.NodeId);
    EXPECT_EQ(Q->Start, P.Start);
    EXPECT_EQ(Q->End, P.End);
  }
}

//===----------------------------------------------------------------------===//
// Build-then-swap: a failed reallocation keeps the old reservations
//===----------------------------------------------------------------------===//

TEST_F(ReallocRepairTest, FailedReallocationKeepsOldReservations) {
  MetaFixture F;
  Job J = makeFig2Job();
  Strategy S = F.Meta.buildStrategy(J, 0);
  ASSERT_TRUE(F.Meta.commit(J, *S.bestByCost(), F.User));
  size_t Before = 0;
  for (const auto &N : F.Env.nodes())
    for (const auto &I : N.timeline().intervals())
      Before += I.Owner == Metascheduler::ownerOf(J.id());
  ASSERT_GT(Before, 0u);

  // One tick before the deadline nothing fits: the repair stages have
  // nothing broken to fix and the rebuild comes back inadmissible.
  ReallocationResult R = F.Meta.reallocate(J, S, F.User, J.deadline() - 1);
  EXPECT_FALSE(R.admissible());
  EXPECT_EQ(R.Stage, RepairStage::Failed);

  // Build-then-swap: every old reservation survived the failure.
  size_t After = 0;
  for (const auto &N : F.Env.nodes())
    for (const auto &I : N.timeline().intervals())
      After += I.Owner == Metascheduler::ownerOf(J.id());
  EXPECT_EQ(After, Before);
}

//===----------------------------------------------------------------------===//
// Journal shape: every reallocation records its resolution
//===----------------------------------------------------------------------===//

TEST_F(ReallocRepairTest, RepairJournalRecordsAStagePerReallocation) {
  obs::ParsedJournal J;
  std::string Error;
  ASSERT_TRUE(obs::parseJournalJsonl(voJournal(ReallocationMode::Repair, 7),
                                     J, Error))
      << Error;
  size_t Reallocates = 0, Stages = 0;
  for (const obs::ParsedJournalEvent &E : J.Events) {
    if (E.Kind == "reallocate") {
      ++Reallocates;
      // The same job must resolve through a repair.stage event at the
      // same tick — success or failure, the stage is on record.
      bool Resolved = false;
      for (const obs::ParsedJournalEvent &R : J.Events)
        if (R.Kind == "repair.stage" && R.JobId == E.JobId && R.At == E.At)
          Resolved = true;
      EXPECT_TRUE(Resolved) << "job " << E.JobId << " reallocation at t="
                            << E.At << " records no repair stage";
    } else if (E.Kind == "repair.stage") {
      ++Stages;
      const int64_t *Stage = E.arg("stage");
      ASSERT_NE(Stage, nullptr);
      EXPECT_GE(*Stage, 1);
      EXPECT_LE(*Stage, 3);
    }
  }
  ASSERT_GT(Reallocates, 0u);
  ASSERT_GT(Stages, 0u);
}

TEST_F(ReallocRepairTest, RebuildJournalHasNoRepairEvents) {
  std::string Journal = voJournal(ReallocationMode::Rebuild, 7);
  obs::ParsedJournal J;
  std::string Error;
  ASSERT_TRUE(obs::parseJournalJsonl(Journal, J, Error)) << Error;
  size_t Reallocates = 0;
  for (const obs::ParsedJournalEvent &E : J.Events) {
    Reallocates += E.Kind == "reallocate";
    EXPECT_NE(E.Kind, "repair.stage");
    EXPECT_NE(E.Kind, "repair.attempt");
  }
  ASSERT_GT(Reallocates, 0u);
}

//===----------------------------------------------------------------------===//
// Determinism: both modes are invariant from run to run
//===----------------------------------------------------------------------===//

TEST_F(ReallocRepairTest, JournalsAreRunToRunInvariantPerMode) {
  for (ReallocationMode Mode :
       {ReallocationMode::Repair, ReallocationMode::Rebuild}) {
    for (uint64_t Seed : {3u, 11u}) {
      std::string Base = voJournal(Mode, Seed);
      ASSERT_FALSE(Base.empty());
      EXPECT_EQ(Base, voJournal(Mode, Seed)) << "seed " << Seed;
    }
  }
}

//===----------------------------------------------------------------------===//
// The by-rebuild repair oracle
//===----------------------------------------------------------------------===//

TEST_F(ReallocRepairTest, OracleFindsEveryRepairFeasibleAndAffordable) {
  VoConfig Config;
  Config.JobCount = 60;
  Config.Workload.DeadlineSlack = 2.0;
  Config.RepairOracle = true;
  VoRunResult R = runVirtualOrganization(Config, StrategyKind::S1, /*Seed=*/7);
  const RepairOracleStats &O = R.RepairOracle;
  ASSERT_GT(O.Checked, 0u);
  EXPECT_EQ(O.Feasible, O.Checked);
  EXPECT_EQ(O.Affordable, O.Checked);
  // Aggregate dominance: pinning stale placements can price single
  // repairs above a fresh rebuild, but across the run repair must not
  // cost more than the rebuilds the oracle derived.
  EXPECT_LE(O.RepairCost, O.RebuildCost + 1e-9);
}

TEST_F(ReallocRepairTest, OracleIsSideEffectFree) {
  // Same run with and without the oracle: identical journals (the
  // oracle's reference rebuilds run in a journal discard scope).
  auto Run = [](bool Oracle) {
    VoConfig Config;
    Config.JobCount = 36;
    Config.InterarrivalLo = 0;
    Config.InterarrivalHi = 6;
    Config.RepairOracle = Oracle;
    obs::Journal &Jn = obs::Journal::global();
    Jn.reset();
    Jn.enable();
    runVirtualOrganization(Config, StrategyKind::S1, /*Seed=*/7);
    Jn.disable();
    std::string Out = Jn.jsonl();
    Jn.reset();
    return Out;
  };
  EXPECT_EQ(Run(false), Run(true));
}

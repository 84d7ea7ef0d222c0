//===-- flow/Metascheduler.cpp - Job-flow metascheduler -------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "flow/Metascheduler.h"
#include "core/Repair.h"
#include "job/Job.h"
#include "obs/Journal.h"
#include "obs/Metrics.h"
#include "obs/TimeSeries.h"
#include "obs/Trace.h"
#include "support/Check.h"

#include <algorithm>
#include <cmath>

using namespace cws;

const char *cws::reallocationModeName(ReallocationMode M) {
  return M == ReallocationMode::Repair ? "repair" : "rebuild";
}

namespace {
struct MetaMetrics {
  obs::Counter &Commits = obs::Registry::global().counter(
      "cws_meta_commits_total", "supporting schedules committed");
  obs::Counter &QuotaDenied = obs::Registry::global().counter(
      "cws_meta_commit_quota_denied_total",
      "commits refused because the user could not afford the schedule");
  obs::Counter &SlotConflicts = obs::Registry::global().counter(
      "cws_meta_commit_conflicts_total",
      "commits refused because a reserved slot was no longer free");
  obs::Counter &Reallocations = obs::Registry::global().counter(
      "cws_meta_reallocations_total",
      "reallocations that delivered an admissible replacement strategy");
  obs::Counter &ReallocAttempts = obs::Registry::global().counter(
      "cws_meta_realloc_attempts_total",
      "reallocation requests received, before the outcome is known");
  obs::Counter &RepairedShift = obs::Registry::global().counter(
      "cws_meta_realloc_repaired_total{stage=\"shift\"}",
      "reallocations resolved by shifting the one broken reservation");
  obs::Counter &RepairedDp = obs::Registry::global().counter(
      "cws_meta_realloc_repaired_total{stage=\"dp\"}",
      "reallocations resolved by re-running the DP for the broken works");
  obs::Counter &Rebuilt = obs::Registry::global().counter(
      "cws_meta_realloc_rebuilt_total",
      "reallocations that fell through to the full strategy rebuild");
  obs::Counter &ReallocFailed = obs::Registry::global().counter(
      "cws_meta_realloc_failed_total",
      "reallocations whose rebuild came back inadmissible");
  static MetaMetrics &get() {
    static MetaMetrics M;
    return M;
  }
};
} // namespace

bool Metascheduler::commit(const Job &J, const ScheduleVariant &Variant,
                           unsigned UserId, Tick Now) {
  CWS_CHECK(Variant.feasible(), "committing an infeasible variant");
  return commitDistribution(J, Variant.Result.Dist, UserId, Now);
}

bool Metascheduler::commitDistribution(const Job &J, const Distribution &D,
                                       unsigned UserId, Tick Now) {
  MetaMetrics &M = MetaMetrics::get();
  obs::Span CommitSpan("flow", "meta.commit", "job",
                       static_cast<int64_t>(J.id()));
  obs::Journal &Jn = obs::Journal::global();
  double Cost = D.economicCost();
  auto Attempt = [&](bool Ok, const char *Why) {
    if (Jn.enabled())
      Jn.append(obs::JournalKind::CommitAttempt,
                static_cast<int64_t>(J.id()), Now,
                {{"cost", std::llround(Cost)}, {"ok", Ok ? 1 : 0}}, Why);
  };
  if (!Econ.canAfford(UserId, Cost)) {
    M.QuotaDenied.add();
    CommitSpan.arg("ok", 0);
    Attempt(false, "quota-denied");
    return false;
  }
  if (!D.commit(Env, ownerOf(J.id()))) {
    M.SlotConflicts.add();
    CommitSpan.arg("ok", 0);
    Attempt(false, "slot-conflict");
    return false;
  }
  bool Charged = Econ.charge(UserId, Cost);
  CWS_CHECK(Charged, "charge failed after affordability check");
  Committed.insert(ownerOf(J.id()));
  M.Commits.add();
  CommitSpan.arg("ok", 1);
  Attempt(true, "ok");
  obs::TimeSeries::global().sampleEvent(Now, "commit");
  return true;
}

ReallocationResult Metascheduler::reallocate(const Job &J,
                                             const Strategy &Stale,
                                             unsigned UserId, Tick Now) {
  MetaMetrics &M = MetaMetrics::get();
  M.ReallocAttempts.add();
  obs::TimeSeries::global().sampleEvent(Now, "reallocate");
  // Every stage, the stage-3 rebuild included: its build is a child
  // phase, and the grids the stages copy count here.
  obs::Span RepairSpan("flow", "meta.repair", "job",
                       static_cast<int64_t>(J.id()));
  obs::Journal &Jn = obs::Journal::global();
  if (Jn.enabled())
    Jn.append(obs::JournalKind::Reallocate, static_cast<int64_t>(J.id()),
              Now, {}, "stale-strategy");
  OwnerId Owner = ownerOf(J.id());
  ReallocationResult Out;
  uint64_t Copied = 0;
  uint64_t Scanned = 0;

  if (ReallocMode == ReallocationMode::Repair && Stale.admissible()) {
    const Job &Sched = Stale.scheduledJob();
    RepairInputs In{Env, Net, Config, Owner, Now, &Copied, &Scanned};
    // Candidate order: feasible variants, cheapest first — the flow
    // layer commits bestByCost, so the first variant that repairs is
    // the one whose revival is worth the most.
    std::vector<const ScheduleVariant *> Cands;
    for (const ScheduleVariant &V : Stale.variants())
      if (V.feasible())
        Cands.push_back(&V);
    std::stable_sort(Cands.begin(), Cands.end(),
                     [](const ScheduleVariant *A, const ScheduleVariant *B) {
                       return A->Result.Dist.economicCost() <
                              B->Result.Dist.economicCost();
                     });
    if (Jn.enabled())
      Jn.append(obs::JournalKind::RepairAttempt,
                static_cast<int64_t>(J.id()), Now,
                {{"variants", static_cast<int64_t>(Cands.size())}}, "staged");
    // Try every candidate and keep the cheapest success: the flow
    // layer commits bestByCost, and the rebuild oracle scores the
    // repair against the rebuilt best, so cost regret — not
    // first-success latency — is what the selection minimizes. Per
    // candidate the shift is preferred (most continuous: one placement
    // moves, nothing else changes); the DP only runs where no shift
    // fits.
    std::optional<VariantRepair> R;
    for (const ScheduleVariant *V : Cands) {
      std::optional<VariantRepair> Cand = repairVariantByShift(Sched, *V, In);
      if (!Cand)
        Cand = repairVariantByDp(Sched, *V, In);
      if (!Cand)
        continue;
      if (!R ||
          Cand->Repaired.Result.Dist.economicCost() <
              R->Repaired.Result.Dist.economicCost() - 1e-9)
        R = std::move(Cand);
    }
    if (R) {
      bool IsShift = R->Stage == RepairStage::Shift;
      RepairSpan.work("repaired", 1);
      RepairSpan.work("placements_pinned", R->PlacementsPinned);
      RepairSpan.work("works_rerun", R->WorksRerun);
      Out.S = Strategy::repaired(Stale, std::move(R->Repaired), Now);
      Out.Stage = R->Stage;
      (IsShift ? M.RepairedShift : M.RepairedDp).add();
      M.Reallocations.add();
      if (Jn.enabled())
        Jn.append(obs::JournalKind::RepairOutcome,
                  static_cast<int64_t>(J.id()), Now,
                  {{"stage", IsShift ? 1 : 2},
                   {"ok", 1},
                   {"delta", R->ShiftDelta},
                   {"works", static_cast<int64_t>(R->WorksRerun)},
                   {"pinned", static_cast<int64_t>(R->PlacementsPinned)}},
                  repairStageName(R->Stage));
      if (OracleEnabled)
        checkRepairOracle(J, Out.S, UserId, Owner, Now, Copied);
      // The swap: the old reservations die only now, with the repaired
      // replacement validated against the live grid.
      releaseCommitted(Owner);
      RepairSpan.work("intervals_copied", Copied);
      RepairSpan.work("intervals_scanned", Scanned);
      RepairSpan.arg("stage", IsShift ? 1 : 2);
      return Out;
    }
  }

  // Stage 3 (and the whole of rebuild mode): full rebuild,
  // build-then-swap — the job's reservations are released only once an
  // admissible replacement exists, so a failed rebuild leaves the old
  // strategy's state intact for the caller's rejection path.
  Out.S = Strategy::build(J, rebuildGrid(Owner, Now, Copied), Net, Config,
                          Owner, Now);
  RepairSpan.work("intervals_copied", Copied);
  RepairSpan.work("intervals_scanned", Scanned);
  if (Out.S.admissible()) {
    Out.Stage = RepairStage::Rebuild;
    M.Rebuilt.add();
    M.Reallocations.add();
    releaseCommitted(Owner);
  } else {
    Out.Stage = RepairStage::Failed;
    M.ReallocFailed.add();
  }
  if (Jn.enabled() && ReallocMode == ReallocationMode::Repair)
    Jn.append(obs::JournalKind::RepairOutcome, static_cast<int64_t>(J.id()),
              Now,
              {{"stage", 3}, {"ok", Out.Stage == RepairStage::Rebuild ? 1 : 0}},
              repairStageName(Out.Stage));
  RepairSpan.arg("stage", 3);
  return Out;
}

Grid Metascheduler::rebuildGrid(OwnerId Owner, Tick Now,
                                uint64_t &Copied) const {
  // A build at Now asks nothing before Now (see scheduleJob), so the
  // reservations that ended by then cannot change it.
  Grid Scratch;
  Copied += Scratch.assignLive(Env, Now);
  if (Committed.count(Owner))
    Scratch.releaseOwner(Owner);
  return Scratch;
}

void Metascheduler::releaseCommitted(OwnerId Owner) {
  // Only a commit puts a job's reservations into the environment, so an
  // owner that holds none skips the walk over every node's intervals.
  if (Committed.erase(Owner))
    Env.releaseOwner(Owner);
}

void Metascheduler::checkRepairOracle(const Job &J, const Strategy &Repaired,
                                      unsigned UserId, OwnerId Owner,
                                      Tick Now, uint64_t &Copied) {
  // The reference rebuild must not perturb the run: the grid is copied
  // and the journal events of the build are dropped (metric counters
  // still tick — they are advisory).
  obs::JournalDiscardScope Swallow(obs::Journal::global());
  Strategy Rebuilt = Strategy::build(J, rebuildGrid(Owner, Now, Copied), Net,
                                     Config, Owner, Now);

  Oracle.Checked++;
  const ScheduleVariant *Best = Repaired.bestByCost();
  if (!Best)
    return;
  const Job &Sched = Repaired.scheduledJob();
  const Distribution &D = Best->Result.Dist;
  if (D.covers(Sched) && D.makespan() <= Sched.deadline() &&
      D.fitsGrid(Env, Owner))
    Oracle.Feasible++;
  if (Econ.canAfford(UserId, D.economicCost()))
    Oracle.Affordable++;
  const ScheduleVariant *Ref = Rebuilt.bestByCost();
  if (!Ref) {
    Oracle.NotWorse++;
    return;
  }
  Oracle.RepairCost += D.economicCost();
  Oracle.RebuildCost += Ref->Result.Dist.economicCost();
  if (D.economicCost() <= Ref->Result.Dist.economicCost() + 1e-9)
    Oracle.NotWorse++;
}

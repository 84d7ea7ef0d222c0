//===-- core/Scheduler.cpp - The critical works method --------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "core/Scheduler.h"
#include "job/Job.h"
#include "obs/Metrics.h"
#include "obs/Profiler.h"
#include "obs/Trace.h"
#include "support/Check.h"

#include <algorithm>

using namespace cws;

namespace {
struct SchedulerMetrics {
  obs::Counter &Phases = obs::Registry::global().counter(
      "cws_scheduler_phases_total",
      "critical works extracted across all scheduleJob calls");
  obs::Counter &Collisions = obs::Registry::global().counter(
      "cws_scheduler_collisions_total",
      "resource collisions recorded during chain allocation");
  obs::Counter &Repairs = obs::Registry::global().counter(
      "cws_scheduler_repairs_total",
      "collision repairs (blocker release-and-reschedule rounds)");
  obs::Counter &Infeasible = obs::Registry::global().counter(
      "cws_scheduler_infeasible_total",
      "scheduleJob calls that found no distribution within the deadline");
  static SchedulerMetrics &get() {
    static SchedulerMetrics M;
    return M;
  }
};
} // namespace

ScheduleResult cws::scheduleJob(const Job &J, const Grid &Env,
                                const Network &Net,
                                const SchedulerConfig &Config, OwnerId Owner,
                                Tick Now) {
  CWS_CHECK(Owner != 0, "scheduling needs a non-zero owner id");
  SchedulerMetrics &M = SchedulerMetrics::get();
  obs::Span SchedSpan("core", "scheduleJob", "tasks",
                      static_cast<int64_t>(J.taskCount()));
  ScheduleResult Result;
  if (J.taskCount() == 0) {
    Result.Feasible = true;
    return Result;
  }
  CWS_CHECK(J.isAcyclic(), "compound jobs must be acyclic");

  Grid Scratch = Env;
  DataPolicy Policy(Config.DataKind, Net, Config.DataConfig);
  CostModel Cost(Scratch, Config.Costs);

  AllocatorPolicy Alloc = Config.Alloc;
  if (Alloc.CandidateNodes.empty())
    for (const auto &N : Scratch.nodes())
      Alloc.CandidateNodes.push_back(N.id());

  ChainAllocator Allocator(J, Scratch, Policy, Cost, Alloc);

  Tick Release = std::max(Now, J.release());
  std::vector<bool> Assigned(J.taskCount(), false);
  size_t Remaining = J.taskCount();
  // Collision repair budget: when a later critical work cannot fit the
  // windows left by earlier ones, the conflicting placed successors are
  // released and rescheduled ("resolving collisions caused by conflicts
  // between tasks of different critical works").
  int Repairs = 0;
  const int MaxRepairs = Config.RepairBudget;
  while (Remaining > 0) {
    CriticalWork Work;
    {
      obs::Span ExtractSpan("core", "extractCriticalWork");
      Work = findCriticalWork(J, Assigned);
      ExtractSpan.arg("chain_len",
                      static_cast<int64_t>(Work.TaskIds.size()));
    }
    CWS_CHECK(!Work.TaskIds.empty(), "tasks remain but no critical work");
    Result.Phases.push_back(Work);
    M.Phases.add();
    bool Placed;
    {
      obs::PhaseScope DpPhase("chain.dp");
      uint64_t Labels0 = Allocator.labelsKept();
      uint64_t Fits0 = Allocator.fitQueries();
      uint64_t Reruns0 = Allocator.dpReruns();
      obs::Span AllocSpan("core", "allocateChain", "chain_len",
                          static_cast<int64_t>(Work.TaskIds.size()));
      Placed = Allocator.allocate(Work, Result.Dist, Release, J.deadline(),
                                  Owner, Result.Collisions);
      AllocSpan.arg("placed", Placed);
      DpPhase.work("labels", Allocator.labelsKept() - Labels0);
      DpPhase.work("fit_queries", Allocator.fitQueries() - Fits0);
      DpPhase.work("dp_reruns", Allocator.dpReruns() - Reruns0);
    }
    if (Placed) {
      for (unsigned TaskId : Work.TaskIds) {
        Assigned[TaskId] = true;
        --Remaining;
      }
      continue;
    }

    // The chain cannot meet its windows. Its placed successors impose
    // the latest-finish bounds; free them and let later phases place
    // them again around this chain.
    std::vector<unsigned> Blockers;
    for (unsigned TaskId : Work.TaskIds)
      for (size_t EdgeIdx : J.outEdges(TaskId)) {
        unsigned Succ = J.edge(EdgeIdx).Dst;
        if (Result.Dist.find(Succ) &&
            std::find(Blockers.begin(), Blockers.end(), Succ) ==
                Blockers.end())
          Blockers.push_back(Succ);
      }
    if (Blockers.empty() || Repairs >= MaxRepairs) {
      // Genuinely infeasible within the deadline.
      M.Infeasible.add();
      M.Collisions.add(Result.Collisions.size());
      M.Repairs.add(static_cast<uint64_t>(Repairs));
      SchedSpan.arg("feasible", 0);
      return Result;
    }
    ++Repairs;
    obs::Tracer::global().instant("core", "repairCollision", "blockers",
                                  static_cast<int64_t>(Blockers.size()));
    for (unsigned Blocked : Blockers) {
      std::optional<Placement> P = Result.Dist.remove(Blocked);
      CWS_CHECK(P, "blocker vanished from the distribution");
      bool Released =
          Scratch.node(P->NodeId).timeline().release(P->Start, P->End, Owner);
      CWS_CHECK(Released, "blocker had no reservation");
      Assigned[Blocked] = false;
      ++Remaining;
      Result.Collisions.push_back({Blocked, P->NodeId, Owner, P->Start,
                                   P->Start, CollisionResolution::Moved});
    }
  }
  Result.Feasible =
      Result.Dist.covers(J) && Result.Dist.makespan() <= J.deadline();
  if (!Result.Feasible)
    M.Infeasible.add();
  M.Collisions.add(Result.Collisions.size());
  M.Repairs.add(static_cast<uint64_t>(Repairs));
  SchedSpan.arg("feasible", Result.Feasible);
  return Result;
}

//===-- core/Scheduler.cpp - The critical works method --------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "core/Scheduler.h"
#include "job/Job.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Check.h"

#include <algorithm>
#include <array>
#include <optional>

using namespace cws;

namespace {
struct SchedulerMetrics {
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

/// The state one run of the critical works method mutates. A lane
/// serves the bias its result belongs to and, until their picks first
/// differ, also the Time bias with its own collision log.
struct Lane {
  Lane(Grid &Scratch, DataPolicy Policy, size_t Tasks, OptimizationBias Bias,
       bool WithTime)
      : Scratch(&Scratch), Policy(std::move(Policy)), Assigned(Tasks, false),
        Remaining(Tasks), Bias(Bias), WithTime(WithTime) {
    Result.Dist.reserve(Tasks);
  }

  /// The thread's lane or fork grid (see `runLanes`).
  Grid *Scratch;
  DataPolicy Policy;
  ScheduleResult Result;
  std::vector<CollisionRecord> TimeLog;
  std::vector<bool> Assigned;
  size_t Remaining;
  // Collision repair rounds so far: when a later critical work cannot fit
  // the windows left by earlier ones, the conflicting placed successors
  // are released and rescheduled ("resolving collisions caused by
  // conflicts between tasks of different critical works").
  int Repairs = 0;
  OptimizationBias Bias;
  bool WithTime;

  BiasLogs logs() {
    BiasLogs Logs{};
    Logs[static_cast<size_t>(Bias)] = &Result.Collisions;
    if (WithTime)
      Logs[static_cast<size_t>(OptimizationBias::Time)] = &TimeLog;
    return Logs;
  }
};

/// What `runLanes` returns: the result of every lane that ran, indexed
/// by bias, and the reservations copied into the lanes' grids.
struct LaneResults {
  std::array<std::optional<ScheduleResult>, 2> Out;
  uint64_t IntervalsCopied = 0;
};

/// The critical works method for \p J: one lane serving \p Bias, plus
/// the Time bias when \p WithTime.
///
/// The lanes place into copies of \p Env that keep only reservations
/// ending after \p Now: every query a lane asks starts at or after
/// `Release = max(Now, J.release())` (ready times, earliest fits, the
/// collision scans), and a reservation that ended by then can change no
/// answer. The fork copies the main lane's grid, which holds nothing
/// older.
LaneResults runLanes(const Job &J, const Grid &Env, const Network &Net,
                     const SchedulerConfig &Config, OwnerId Owner, Tick Now,
                     OptimizationBias Bias, bool WithTime) {
  CWS_CHECK(Owner != 0, "scheduling needs a non-zero owner id");
  SchedulerMetrics &M = SchedulerMetrics::get();
  obs::Span SchedSpan("core", "scheduleJob", "tasks",
                      static_cast<int64_t>(J.taskCount()));
  LaneResults Results;
  std::array<std::optional<ScheduleResult>, 2> &Out = Results.Out;
  if (J.taskCount() == 0) {
    Out[static_cast<size_t>(Bias)].emplace().Feasible = true;
    return Results;
  }
  // One topological order serves every critical work of every lane.
  const std::vector<unsigned> Order = J.topoOrder();
  CWS_CHECK(Order.size() == J.taskCount(), "compound jobs must be acyclic");

  // Node prices are the same in every scratch copy of Env.
  CostModel Cost(Env, Config.Costs);
  AllocatorPolicy Alloc = Config.Alloc;
  if (Alloc.CandidateNodes.empty())
    for (const auto &N : Env.nodes())
      Alloc.CandidateNodes.push_back(N.id());

  Tick Release = std::max(Now, J.release());
  const int MaxRepairs = Config.RepairBudget;
  std::optional<Lane> Forked;
  bool ForkPlaced = false;

  // Each thread keeps the grids of a lane and of its fork and refills
  // them in place for every run, so a run allocates grid storage only
  // when it needs more than every earlier run on the thread did. A run
  // never starts another on its thread.
  thread_local Grid MainGrid, ForkGrid;

  // Runs \p L to completion. With \p Pending, the chain of its last
  // phase was already placed (or not) when the lanes split.
  auto Drive = [&](Lane &L, std::optional<bool> Pending) {
    ChainAllocator Allocator(J, *L.Scratch, L.Policy, Cost, Alloc);
    while (Pending || L.Remaining > 0) {
      bool Placed;
      if (Pending) {
        Placed = *Pending;
        Pending.reset();
      } else {
        CriticalWork Work;
        {
          obs::Span ExtractSpan("core", "extractCriticalWork");
          Work = findCriticalWork(J, Order, L.Assigned);
          ExtractSpan.arg("chain_len",
                          static_cast<int64_t>(Work.TaskIds.size()));
        }
        CWS_CHECK(!Work.TaskIds.empty(), "tasks remain but no critical work");
        L.Result.Phases.push_back(std::move(Work));
        const CriticalWork &Chain = L.Result.Phases.back();
        ChainDpPhase DpPhase(Allocator, Chain);
        ChainSplit Split;
        ChainOutcome Outcome =
            Allocator.allocate(Chain, L.Result.Dist, Release, J.deadline(),
                               Owner, L.logs(), Split);
        Placed = Outcome == ChainOutcome::Placed;
        if (Outcome == ChainOutcome::Split) {
          // The picks differ: the Time bias continues on a copy of the
          // state the split left, with its own collision log.
          Forked.emplace(L);
          Forked->Result.Dist.reserve(J.taskCount());
          Forked->Scratch = &ForkGrid;
          Results.IntervalsCopied += ForkGrid.assignLive(*L.Scratch, Now);
          Forked->Bias = OptimizationBias::Time;
          Forked->WithTime = false;
          Forked->Result.Collisions = std::move(Forked->TimeLog);
          Forked->TimeLog.clear();
          L.WithTime = false;
          L.TimeLog.clear();
          ChainAllocator TimeAllocator(J, *Forked->Scratch, Forked->Policy,
                                       Cost, Alloc);
          ForkPlaced = TimeAllocator.resume(
              Chain, Split, OptimizationBias::Time, Forked->Result.Dist,
              Release, J.deadline(), Owner, Forked->Result.Collisions);
          Placed = Allocator.resume(Chain, Split, L.Bias, L.Result.Dist,
                                    Release, J.deadline(), Owner,
                                    L.Result.Collisions);
          // The Time lane's continuation is work of this placement too.
          DpPhase.add(TimeAllocator.work());
        }
        DpPhase.placed(Placed);
      }
      const CriticalWork &Work = L.Result.Phases.back();
      if (Placed) {
        for (unsigned TaskId : Work.TaskIds) {
          L.Assigned[TaskId] = true;
          --L.Remaining;
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
          if (L.Result.Dist.find(Succ) &&
              std::find(Blockers.begin(), Blockers.end(), Succ) ==
                  Blockers.end())
            Blockers.push_back(Succ);
        }
      if (Blockers.empty() || L.Repairs >= MaxRepairs)
        break; // Genuinely infeasible within the deadline.
      ++L.Repairs;
      obs::Tracer::global().instant("core", "repairCollision", "blockers",
                                    static_cast<int64_t>(Blockers.size()));
      for (unsigned Blocked : Blockers) {
        std::optional<Placement> P = L.Result.Dist.remove(Blocked);
        CWS_CHECK(P, "blocker vanished from the distribution");
        bool Released = L.Scratch->node(P->NodeId).timeline().release(
            P->Start, P->End, Owner);
        CWS_CHECK(Released, "blocker had no reservation");
        L.Assigned[Blocked] = false;
        ++L.Remaining;
        CollisionRecord C{Blocked, P->NodeId, Owner, P->Start, P->Start,
                          CollisionResolution::Moved};
        for (std::vector<CollisionRecord> *Log : L.logs())
          if (Log)
            Log->push_back(C);
      }
    }
    L.Result.Feasible =
        L.Result.Dist.covers(J) && L.Result.Dist.makespan() <= J.deadline();
    // The result outlives the run in its strategy: keep only what it
    // holds.
    L.Result.Collisions.shrink_to_fit();
    L.Result.Phases.shrink_to_fit();
    if (!L.Result.Feasible)
      M.Infeasible.add();
    M.Collisions.add(L.Result.Collisions.size());
    M.Repairs.add(static_cast<uint64_t>(L.Repairs));
    Out[static_cast<size_t>(L.Bias)] = std::move(L.Result);
  };

  Results.IntervalsCopied += MainGrid.assignLive(Env, Now);
  Lane Main(MainGrid, DataPolicy(Config.DataKind, Net, Config.DataConfig),
            J.taskCount(), Bias, WithTime);
  Drive(Main, std::nullopt);
  if (Forked)
    Drive(*Forked, ForkPlaced);
  SchedSpan.arg("feasible", Out[static_cast<size_t>(Bias)]->Feasible);
  return Results;
}

} // namespace

ScheduleResult cws::scheduleJob(const Job &J, const Grid &Env,
                                const Network &Net,
                                const SchedulerConfig &Config, OwnerId Owner,
                                Tick Now) {
  return std::move(*runLanes(J, Env, Net, Config, Owner, Now,
                             Config.Alloc.Bias, /*WithTime=*/false)
                        .Out[static_cast<size_t>(Config.Alloc.Bias)]);
}

CostTimeSchedules cws::scheduleCostAndTime(const Job &J, const Grid &Env,
                                           const Network &Net,
                                           const SchedulerConfig &Config,
                                           OwnerId Owner, Tick Now) {
  LaneResults Lanes = runLanes(J, Env, Net, Config, Owner, Now,
                               OptimizationBias::Cost, /*WithTime=*/true);
  return {std::move(*Lanes.Out[static_cast<size_t>(OptimizationBias::Cost)]),
          std::move(Lanes.Out[static_cast<size_t>(OptimizationBias::Time)]),
          Lanes.IntervalsCopied};
}

//===-- core/Scheduler.h - The critical works method ------------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multiphase critical works method: repeatedly extract the longest
/// chain of unassigned tasks, allocate it with the DP chain allocator,
/// and resolve the collisions that arise between tasks of different
/// critical works competing for a node. The result is one Distribution —
/// a complete co-allocation of the compound job with wall-time
/// reservations.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_CORE_SCHEDULER_H
#define CWS_CORE_SCHEDULER_H

#include "core/ChainAllocator.h"
#include "core/Collision.h"
#include "core/CostModel.h"
#include "core/CriticalWork.h"
#include "core/Distribution.h"
#include "resource/DataPolicy.h"
#include "resource/Grid.h"
#include "resource/Network.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace cws {

class Job;

/// Configuration of one scheduling run.
struct SchedulerConfig {
  DataPolicyKind DataKind = DataPolicyKind::RemoteAccess;
  DataPolicyConfig DataConfig;
  CostConfig Costs;
  /// Candidate nodes, bias, coarse-grain penalty, front size.
  AllocatorPolicy Alloc;
  /// How many times the scheduler may release blocking placed
  /// successors to resolve an inter-chain collision (0 disables the
  /// repair mechanism; see the ablation bench).
  int RepairBudget = 8;
};

/// Outcome of one run: the distribution (complete iff Feasible), the
/// collision log and the critical work of every phase.
struct ScheduleResult {
  Distribution Dist;
  bool Feasible = false;
  std::vector<CollisionRecord> Collisions;
  std::vector<CriticalWork> Phases;
};

/// Runs the critical works method for \p J against a *copy* of \p Env
/// (the real environment is never mutated; committing the resulting
/// distribution is the caller's decision). \p Now is the earliest
/// allowed start (the scheduling moment); reservations are placed within
/// [max(Now, J.release()), J.deadline()], so the copy keeps only the
/// reservations of \p Env that end after \p Now. When
/// \p Config.Alloc.CandidateNodes is empty every node of \p Env is a
/// candidate.
ScheduleResult scheduleJob(const Job &J, const Grid &Env, const Network &Net,
                           const SchedulerConfig &Config, OwnerId Owner,
                           Tick Now = 0);

/// The Cost and the Time schedule of `scheduleJob`, built together.
struct CostTimeSchedules {
  ScheduleResult Cost;
  /// Empty when the Time bias never picked differently from Cost: its
  /// schedule would then equal Cost's except for the `Moved` collisions
  /// only the Cost bias records.
  std::optional<ScheduleResult> Time;
  /// Reservations copied into the scratch grids of both schedules.
  uint64_t IntervalsCopied = 0;
};

/// `scheduleJob` under both biases (`Config.Alloc.Bias` is not read).
/// One scratch state serves both while their chain picks agree, so each
/// critical work before the first differing pick is placed once; at that
/// pick the state is copied and each bias continues on its own. Each
/// result equals what `scheduleJob` returns for its bias.
CostTimeSchedules scheduleCostAndTime(const Job &J, const Grid &Env,
                                      const Network &Net,
                                      const SchedulerConfig &Config,
                                      OwnerId Owner, Tick Now = 0);

} // namespace cws

#endif // CWS_CORE_SCHEDULER_H

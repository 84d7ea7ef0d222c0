//===-- flow/JobManager.h - Per-flow job managers ---------------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The job manager of one flow (Fig. 1's middle layer). It keeps every
/// active job's strategy alive: records admissibility and the start
/// forecast at arrival, picks the supporting schedule that still fits at
/// commit time (counting switches), requests reallocation from the
/// metascheduler when the whole strategy went stale, and tracks each
/// strategy's time-to-live as background load accumulates.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_FLOW_JOBMANAGER_H
#define CWS_FLOW_JOBMANAGER_H

#include "core/Strategy.h"
#include "flow/Execution.h"
#include "flow/Metascheduler.h"
#include "job/Job.h"
#include "sim/Time.h"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

namespace cws {

/// Per-job QoS record of one virtual-organization run.
struct VoJobStats {
  unsigned JobId = 0;
  Tick Arrival = 0;
  Tick Deadline = 0;
  /// The strategy had at least one feasible variant at arrival (Fig. 3a).
  bool Admissible = false;
  bool Committed = false;
  bool Rejected = false;
  /// Committed only after a reallocation (strategy went stale during
  /// negotiation and shifting could not recover it).
  bool Reallocated = false;
  /// Committed a time-shifted copy of a stale supporting schedule.
  bool ShiftRecovered = false;
  /// Ticks the committed schedule was shifted by (ShiftRecovered only).
  Tick CommitShift = 0;
  /// The committed variant differs from the one forecast at arrival.
  bool Switched = false;
  Tick ForecastStart = 0;
  Tick ActualStart = 0;
  Tick Completion = 0;
  /// Quota units paid for the committed schedule.
  double Cost = 0.0;
  /// The paper's cost function CF of the committed schedule.
  int64_t Cf = 0;
  /// Actual completion when execution-with-deviations is enabled
  /// (0 = not executed).
  Tick ActualCompletion = 0;
  /// The execution overran a wall limit and was killed.
  bool ExecutionKilled = false;
  /// Time-to-live of the arrival-time strategy (Fig. 4c).
  Tick Ttl = 0;
  bool TtlClosed = false;
  size_t Collisions = 0;

  /// Wall time from actual start to completion.
  Tick runTicks() const { return Completion - ActualStart; }
  /// |actual - forecast| start deviation.
  Tick startDeviation() const {
    Tick D = ActualStart - ForecastStart;
    return D < 0 ? -D : D;
  }
};

/// Manages the lifecycle of the jobs of one flow.
class JobManager {
public:
  /// \p FlowId tags this flow's journal events (multi-flow runs number
  /// their flows; -1 = unlabelled single flow).
  JobManager(Metascheduler &Meta, unsigned UserId, int FlowId = -1)
      : Meta(Meta), UserId(UserId), FlowId(FlowId) {}

  /// Enables execution with runtime deviations: every committed
  /// schedule is run through the execution engine and its actual
  /// completion (or wall-limit kill) recorded. Each job's deviations
  /// draw from a Prng derived from (\p SeedBase, job id), so they are
  /// independent of commit order.
  void enableExecution(const ExecutionConfig &Config, uint64_t SeedBase) {
    Exec = Config;
    ExecSeed = SeedBase;
    ExecEnabled = true;
  }

  /// A job entered the flow: build its strategy, record admissibility
  /// and the start forecast. Returns true when admissible (the caller
  /// then schedules a negotiation event).
  bool onArrival(const Job &J, Tick Now);

  /// Negotiation concluded: commit the cheapest still-fitting variant,
  /// after one reallocation attempt if the strategy went stale. Returns
  /// the completion time on success. When \p Scanned is set, the
  /// reservations the shift recovery's overlap scans read are added to
  /// it (the caller's `commit.apply` work counter; the reallocation
  /// counts its own on `meta.repair`).
  std::optional<Tick> onNegotiation(unsigned JobId, Tick Now,
                                    uint64_t *Scanned = nullptr);

  /// The environment changed: re-validate every strategy still
  /// negotiating and close the TTL of those left without a fitting
  /// variant. Returns the placements re-validated (the caller's
  /// `env.invalidate` work counter).
  uint64_t onEnvironmentChange(Tick Now);

  /// The job's last reservation ended: close bookkeeping.
  void onCompletion(unsigned JobId, Tick Now);

  const std::vector<VoJobStats> &stats() const { return Stats; }
  std::vector<VoJobStats> takeStats() { return std::move(Stats); }

  /// Jobs still tracked (uncommitted or TTL-open).
  size_t activeCount() const { return Active.size(); }

  /// Admissible jobs still negotiating (no committed schedule yet) —
  /// the telemetry sampler's per-flow "queued" series.
  size_t queuedCount() const;

  /// Committed jobs whose completion has not fired yet — the sampler's
  /// per-flow "in_flight" series.
  size_t inFlightCount() const;

private:
  struct ActiveJob {
    Job TheJob;
    Strategy S;
    size_t StatsIdx;
    /// Index of the variant forecast at arrival, SIZE_MAX if none.
    size_t ForecastVariant;
    bool Committed = false;
    bool Done = false;
  };

  VoJobStats &statsOf(ActiveJob &A) { return Stats[A.StatsIdx]; }
  void maybeRetire(unsigned JobId);

  /// Re-validates one negotiating strategy and, when no variant fits
  /// any more, closes its TTL, counts and journals the invalidation.
  /// Returns the placements examined.
  uint64_t revalidate(unsigned JobId, ActiveJob &A, Tick Now);

  /// Runs the committed distribution when execution is enabled.
  void runExecution(ActiveJob &A, const Distribution &D, Tick Now);

  Metascheduler &Meta;
  unsigned UserId;
  int FlowId = -1;
  bool ExecEnabled = false;
  ExecutionConfig Exec;
  uint64_t ExecSeed = 0;
  std::unordered_map<unsigned, ActiveJob> Active;
  std::vector<VoJobStats> Stats;
};

} // namespace cws

#endif // CWS_FLOW_JOBMANAGER_H

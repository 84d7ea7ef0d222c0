//===-- metrics/QoS.h - QoS factor aggregation ------------------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Aggregation of the paper's QoS factors over one virtual-organization
/// run: job completion cost, task execution time, scheduling forecast
/// errors (start-time deviation) and strategy time-to-live.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_METRICS_QOS_H
#define CWS_METRICS_QOS_H

#include "flow/VirtualOrganization.h"
#include "obs/Metrics.h"

#include <cstddef>
#include <cstdint>

namespace cws {

/// QoS factors of one run: the exact totals, and the shares and means
/// derived from them.
struct VoAggregates {
  size_t Jobs = 0;
  size_t Committed = 0;
  size_t Admissible = 0;
  size_t Switched = 0;
  size_t Reallocated = 0;
  size_t ShiftRecovered = 0;
  /// Strategy time-to-live summed over the admissible jobs whose
  /// strategy expired (TtlSamples of them).
  int64_t TtlSum = 0;
  size_t TtlSamples = 0;
  /// Sums over committed jobs, in job order: CF, quota cost, and start
  /// deviation / run ticks.
  int64_t CfSum = 0;
  double CostSum = 0.0;
  double StartDeviationRatioSum = 0.0;
  double AdmissiblePercent = 0.0;
  double CommittedPercent = 0.0;
  double RejectedPercent = 0.0;
  double SwitchedPercent = 0.0;
  double ReallocatedPercent = 0.0;
  /// Share of jobs recovered by shifting a stale supporting schedule.
  double ShiftRecoveredPercent = 0.0;
  /// Mean shift (ticks) over shift-recovered commits.
  double MeanCommitShift = 0.0;
  /// Mean quota cost of committed jobs.
  double MeanCost = 0.0;
  /// Mean cost-function value CF of committed jobs (the paper's "job
  /// completion cost").
  double MeanCf = 0.0;
  /// Mean wall time from actual start to completion (the paper's "task
  /// execution time" factor).
  double MeanRunTicks = 0.0;
  /// Mean wall time from arrival to completion.
  double MeanResponseTicks = 0.0;
  /// Mean strategy time-to-live (admissible jobs).
  double MeanTtl = 0.0;
  /// Mean |actual - forecast| start deviation over committed jobs.
  double MeanStartDeviation = 0.0;
  /// Mean start deviation / run time (Fig. 4c's ratio).
  double MeanStartDeviationRatio = 0.0;
  /// Mean collisions per job during strategy construction.
  double MeanCollisions = 0.0;
  /// Share of committed jobs killed at a wall limit (only when the run
  /// executed schedules under runtime deviations).
  double ExecutionKilledPercent = 0.0;
};

/// Computes the aggregates of one run.
VoAggregates summarizeVo(const VoRunResult &Run);

/// Publishes \p A into \p R as `cws_vo_*` real gauges, so one
/// `--metrics` snapshot carries the engine internals (scheduler
/// counters, build latencies) and the QoS results of the same run
/// side by side.
void publishVoAggregates(const VoAggregates &A,
                         obs::Registry &R = obs::Registry::global());

/// Publishes \p A as one flow's labeled series: every `cws_vo_<x>`
/// metric becomes a `cws_flow_<x>{flow="<Flow>"}` gauge. \p Flow is
/// the flow's label (a strategy name like "S1", or any caller-chosen
/// tag); '"', '\' and newlines are escaped per the exposition format.
void publishFlowAggregates(const VoAggregates &A, const std::string &Flow,
                           obs::Registry &R = obs::Registry::global());

} // namespace cws

#endif // CWS_METRICS_QOS_H

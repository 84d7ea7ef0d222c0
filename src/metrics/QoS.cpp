//===-- metrics/QoS.cpp - QoS factor aggregation --------------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "metrics/QoS.h"

#include <algorithm>

using namespace cws;

VoAggregates cws::summarizeVo(const VoRunResult &Run) {
  VoAggregates A;
  A.Jobs = Run.Jobs.size();
  if (A.Jobs == 0)
    return A;

  size_t Admissible = 0;
  size_t Rejected = 0;
  size_t Switched = 0;
  size_t Reallocated = 0;
  size_t ShiftRecovered = 0;
  size_t TtlSamples = 0;
  for (const auto &St : Run.Jobs) {
    if (St.Admissible)
      ++Admissible;
    if (St.Rejected)
      ++Rejected;
    if (St.Switched)
      ++Switched;
    if (St.Reallocated)
      ++Reallocated;
    if (St.ShiftRecovered) {
      ++ShiftRecovered;
      A.MeanCommitShift += static_cast<double>(St.CommitShift);
    }
    if (St.Admissible && St.TtlClosed) {
      A.MeanTtl += static_cast<double>(St.Ttl);
      ++TtlSamples;
    }
    if (!St.Committed)
      continue;
    ++A.Committed;
    if (St.ExecutionKilled)
      A.ExecutionKilledPercent += 1.0;
    A.MeanCost += St.Cost;
    A.MeanCf += static_cast<double>(St.Cf);
    A.MeanRunTicks += static_cast<double>(St.runTicks());
    A.MeanResponseTicks += static_cast<double>(St.Completion - St.Arrival);
    A.MeanStartDeviation += static_cast<double>(St.startDeviation());
    A.MeanStartDeviationRatio +=
        static_cast<double>(St.startDeviation()) /
        static_cast<double>(std::max<Tick>(1, St.runTicks()));
    A.MeanCollisions += static_cast<double>(St.Collisions);
  }

  auto Pct = [&](size_t N) {
    return 100.0 * static_cast<double>(N) / static_cast<double>(A.Jobs);
  };
  A.AdmissiblePercent = Pct(Admissible);
  A.CommittedPercent = Pct(A.Committed);
  A.RejectedPercent = Pct(Rejected);
  A.SwitchedPercent = Pct(Switched);
  A.ReallocatedPercent = Pct(Reallocated);
  A.ShiftRecoveredPercent = Pct(ShiftRecovered);
  if (ShiftRecovered > 0)
    A.MeanCommitShift /= static_cast<double>(ShiftRecovered);
  if (TtlSamples > 0)
    A.MeanTtl /= static_cast<double>(TtlSamples);
  if (A.Committed > 0) {
    auto N = static_cast<double>(A.Committed);
    A.ExecutionKilledPercent = 100.0 * A.ExecutionKilledPercent / N;
    A.MeanCost /= N;
    A.MeanCf /= N;
    A.MeanRunTicks /= N;
    A.MeanResponseTicks /= N;
    A.MeanStartDeviation /= N;
    A.MeanStartDeviationRatio /= N;
    A.MeanCollisions /= N;
  }
  return A;
}

void cws::publishVoAggregates(const VoAggregates &A, obs::Registry &R) {
  auto Set = [&R](const char *Name, const char *Help, double Value) {
    R.realGauge(Name, Help).set(Value);
  };
  Set("cws_vo_jobs", "compound jobs in the summarized VO run",
      static_cast<double>(A.Jobs));
  Set("cws_vo_committed_jobs", "jobs whose schedule was committed",
      static_cast<double>(A.Committed));
  Set("cws_vo_admissible_percent", "share of admissible jobs",
      A.AdmissiblePercent);
  Set("cws_vo_committed_percent", "share of committed jobs",
      A.CommittedPercent);
  Set("cws_vo_rejected_percent", "share of rejected jobs",
      A.RejectedPercent);
  Set("cws_vo_switched_percent",
      "share of jobs that switched supporting schedules",
      A.SwitchedPercent);
  Set("cws_vo_reallocated_percent", "share of reallocated jobs",
      A.ReallocatedPercent);
  Set("cws_vo_shift_recovered_percent",
      "share of jobs recovered by shifting a stale schedule",
      A.ShiftRecoveredPercent);
  Set("cws_vo_mean_commit_shift", "mean shift over shift-recovered commits",
      A.MeanCommitShift);
  Set("cws_vo_mean_cost", "mean quota cost of committed jobs", A.MeanCost);
  Set("cws_vo_mean_cf", "mean cost-function value of committed jobs",
      A.MeanCf);
  Set("cws_vo_mean_run_ticks", "mean start-to-completion wall ticks",
      A.MeanRunTicks);
  Set("cws_vo_mean_response_ticks", "mean arrival-to-completion wall ticks",
      A.MeanResponseTicks);
  Set("cws_vo_mean_ttl", "mean strategy time-to-live of admissible jobs",
      A.MeanTtl);
  Set("cws_vo_mean_start_deviation",
      "mean |actual - forecast| start deviation", A.MeanStartDeviation);
  Set("cws_vo_mean_start_deviation_ratio",
      "mean start deviation / run time ratio", A.MeanStartDeviationRatio);
  Set("cws_vo_mean_collisions", "mean collisions per committed job",
      A.MeanCollisions);
  Set("cws_vo_execution_killed_percent",
      "share of committed jobs killed at a wall limit",
      A.ExecutionKilledPercent);
}

void cws::publishFlowAggregates(const VoAggregates &A,
                                const std::string &Flow, obs::Registry &R) {
  // Labeled series: the registry stores the full name and the exporter
  // splits the family at '{' for the HELP/TYPE headers. The flow name
  // is user-controlled, so it is escaped per the exposition format.
  std::string Label = "{flow=\"" + obs::escapeLabelValue(Flow) + "\"}";
  auto Set = [&R, &Label](const char *Name, const char *Help,
                          double Value) {
    R.realGauge(std::string(Name) + Label, Help).set(Value);
  };
  Set("cws_flow_jobs", "compound jobs of the flow",
      static_cast<double>(A.Jobs));
  Set("cws_flow_committed_jobs", "committed jobs of the flow",
      static_cast<double>(A.Committed));
  Set("cws_flow_admissible_percent", "share of admissible jobs per flow",
      A.AdmissiblePercent);
  Set("cws_flow_committed_percent", "share of committed jobs per flow",
      A.CommittedPercent);
  Set("cws_flow_rejected_percent", "share of rejected jobs per flow",
      A.RejectedPercent);
  Set("cws_flow_switched_percent",
      "share of jobs that switched supporting schedules per flow",
      A.SwitchedPercent);
  Set("cws_flow_reallocated_percent", "share of reallocated jobs per flow",
      A.ReallocatedPercent);
  Set("cws_flow_shift_recovered_percent",
      "share of jobs recovered by shifting a stale schedule per flow",
      A.ShiftRecoveredPercent);
  Set("cws_flow_mean_commit_shift",
      "mean shift over shift-recovered commits per flow",
      A.MeanCommitShift);
  Set("cws_flow_mean_cost", "mean quota cost of committed jobs per flow",
      A.MeanCost);
  Set("cws_flow_mean_cf",
      "mean cost-function value of committed jobs per flow", A.MeanCf);
  Set("cws_flow_mean_run_ticks",
      "mean start-to-completion wall ticks per flow", A.MeanRunTicks);
  Set("cws_flow_mean_response_ticks",
      "mean arrival-to-completion wall ticks per flow",
      A.MeanResponseTicks);
  Set("cws_flow_mean_ttl",
      "mean strategy time-to-live of admissible jobs per flow", A.MeanTtl);
  Set("cws_flow_mean_start_deviation",
      "mean |actual - forecast| start deviation per flow",
      A.MeanStartDeviation);
  Set("cws_flow_mean_start_deviation_ratio",
      "mean start deviation / run time ratio per flow",
      A.MeanStartDeviationRatio);
  Set("cws_flow_mean_collisions",
      "mean collisions per committed job per flow", A.MeanCollisions);
  Set("cws_flow_execution_killed_percent",
      "share of committed jobs killed at a wall limit per flow",
      A.ExecutionKilledPercent);
}

//===-- metrics/QoS.cpp - QoS factor aggregation --------------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "metrics/QoS.h"

#include <algorithm>
#include <string>
#include <vector>

using namespace cws;

VoAggregates cws::summarizeVo(const VoRunResult &Run) {
  VoAggregates A;
  A.Jobs = Run.Jobs.size();
  if (A.Jobs == 0)
    return A;

  size_t Rejected = 0;
  for (const auto &St : Run.Jobs) {
    A.Admissible += St.Admissible;
    Rejected += St.Rejected;
    A.Switched += St.Switched;
    A.Reallocated += St.Reallocated;
    if (St.ShiftRecovered) {
      ++A.ShiftRecovered;
      A.MeanCommitShift += static_cast<double>(St.CommitShift);
    }
    if (St.Admissible && St.TtlClosed) {
      A.TtlSum += St.Ttl;
      ++A.TtlSamples;
    }
    if (!St.Committed)
      continue;
    ++A.Committed;
    if (St.ExecutionKilled)
      A.ExecutionKilledPercent += 1.0;
    A.CfSum += St.Cf;
    A.CostSum += St.Cost;
    A.StartDeviationRatioSum +=
        static_cast<double>(St.startDeviation()) /
        static_cast<double>(std::max<Tick>(1, St.runTicks()));
    A.MeanRunTicks += static_cast<double>(St.runTicks());
    A.MeanResponseTicks += static_cast<double>(St.Completion - St.Arrival);
    A.MeanStartDeviation += static_cast<double>(St.startDeviation());
    A.MeanCollisions += static_cast<double>(St.Collisions);
  }

  auto Pct = [&](size_t N) {
    return 100.0 * static_cast<double>(N) / static_cast<double>(A.Jobs);
  };
  A.AdmissiblePercent = Pct(A.Admissible);
  A.CommittedPercent = Pct(A.Committed);
  A.RejectedPercent = Pct(Rejected);
  A.SwitchedPercent = Pct(A.Switched);
  A.ReallocatedPercent = Pct(A.Reallocated);
  A.ShiftRecoveredPercent = Pct(A.ShiftRecovered);
  if (A.ShiftRecovered > 0)
    A.MeanCommitShift /= static_cast<double>(A.ShiftRecovered);
  if (A.TtlSamples > 0)
    A.MeanTtl = static_cast<double>(A.TtlSum) /
                static_cast<double>(A.TtlSamples);
  if (A.Committed > 0) {
    auto N = static_cast<double>(A.Committed);
    A.ExecutionKilledPercent = 100.0 * A.ExecutionKilledPercent / N;
    A.MeanCost = A.CostSum / N;
    A.MeanCf = static_cast<double>(A.CfSum) / N;
    A.MeanRunTicks /= N;
    A.MeanResponseTicks /= N;
    A.MeanStartDeviation /= N;
    A.MeanStartDeviationRatio = A.StartDeviationRatioSum / N;
    A.MeanCollisions /= N;
  }
  return A;
}

namespace {
/// One QoS gauge, published as `cws_vo_<Suffix>` and as
/// `cws_flow_<Suffix>{flow="..."}`.
struct AggregateGauge {
  const char *Suffix;
  const char *Help;
  /// The per-flow help; null means Help + " per flow".
  const char *FlowHelp;
  double Value;
};

std::vector<AggregateGauge> aggregateGauges(const VoAggregates &A) {
  return {
      {"jobs", "compound jobs in the summarized VO run",
       "compound jobs of the flow", static_cast<double>(A.Jobs)},
      {"committed_jobs", "jobs whose schedule was committed",
       "committed jobs of the flow", static_cast<double>(A.Committed)},
      {"admissible_percent", "share of admissible jobs", nullptr,
       A.AdmissiblePercent},
      {"committed_percent", "share of committed jobs", nullptr,
       A.CommittedPercent},
      {"rejected_percent", "share of rejected jobs", nullptr,
       A.RejectedPercent},
      {"switched_percent", "share of jobs that switched supporting schedules",
       nullptr, A.SwitchedPercent},
      {"reallocated_percent", "share of reallocated jobs", nullptr,
       A.ReallocatedPercent},
      {"shift_recovered_percent",
       "share of jobs recovered by shifting a stale schedule", nullptr,
       A.ShiftRecoveredPercent},
      {"mean_commit_shift", "mean shift over shift-recovered commits",
       nullptr, A.MeanCommitShift},
      {"mean_cost", "mean quota cost of committed jobs", nullptr, A.MeanCost},
      {"mean_cf", "mean cost-function value of committed jobs", nullptr,
       A.MeanCf},
      {"mean_run_ticks", "mean start-to-completion wall ticks", nullptr,
       A.MeanRunTicks},
      {"mean_response_ticks", "mean arrival-to-completion wall ticks",
       nullptr, A.MeanResponseTicks},
      {"mean_ttl", "mean strategy time-to-live of admissible jobs", nullptr,
       A.MeanTtl},
      {"mean_start_deviation", "mean |actual - forecast| start deviation",
       nullptr, A.MeanStartDeviation},
      {"mean_start_deviation_ratio", "mean start deviation / run time ratio",
       nullptr, A.MeanStartDeviationRatio},
      {"mean_collisions", "mean collisions per committed job", nullptr,
       A.MeanCollisions},
      {"execution_killed_percent",
       "share of committed jobs killed at a wall limit", nullptr,
       A.ExecutionKilledPercent},
  };
}
} // namespace

void cws::publishVoAggregates(const VoAggregates &A, obs::Registry &R) {
  for (const AggregateGauge &G : aggregateGauges(A))
    R.realGauge(std::string("cws_vo_") + G.Suffix, G.Help).set(G.Value);
}

void cws::publishFlowAggregates(const VoAggregates &A,
                                const std::string &Flow, obs::Registry &R) {
  // Labeled series: the registry stores the full name and the exporter
  // splits the family at '{' for the HELP/TYPE headers. The flow name
  // is user-controlled, so it is escaped per the exposition format.
  std::string Label = "{flow=\"" + obs::escapeLabelValue(Flow) + "\"}";
  for (const AggregateGauge &G : aggregateGauges(A))
    R.realGauge(std::string("cws_flow_") + G.Suffix + Label,
                G.FlowHelp ? G.FlowHelp : std::string(G.Help) + " per flow")
        .set(G.Value);
}

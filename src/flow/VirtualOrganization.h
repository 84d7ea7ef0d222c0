//===-- flow/VirtualOrganization.h - Two-level VO simulation ----*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The coordinated two-level simulation of Section 4: a stream of
/// compound jobs flows through the metascheduler and a job manager while
/// independent background flows keep loading the nodes. This harness
/// produces every Fig. 4 QoS factor: per-group load levels, job cost,
/// task execution time, strategy time-to-live and start-time deviation.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_FLOW_VIRTUALORGANIZATION_H
#define CWS_FLOW_VIRTUALORGANIZATION_H

#include "core/Strategy.h"
#include "flow/BackgroundLoad.h"
#include "flow/JobManager.h"
#include "job/Generator.h"
#include "resource/Grid.h"

#include <cstdint>
#include <string>
#include <vector>

namespace cws {

/// Ignored. The job managers have one invalidation pass (re-validating
/// every negotiating strategy) whichever value is set; the type and
/// VoConfig::Invalidation stay only because the benchmark's reference
/// child sets them.
enum class InvalidationMode { Scan, Index };

/// Parameters of one virtual-organization run.
struct VoConfig {
  GridConfig GridCfg;
  WorkloadConfig Workload;
  /// Strategy generation parameters; Kind is overridden per run.
  StrategyConfig Strategy;
  BackgroundConfig Background;
  /// Compound jobs in the flow.
  size_t JobCount = 200;
  /// Interarrival gap between compound jobs, uniform.
  Tick InterarrivalLo = 10;
  Tick InterarrivalHi = 40;
  /// Delay between strategy generation and commitment (resource
  /// negotiation with the local systems), uniform.
  Tick NegotiationLo = 4;
  Tick NegotiationHi = 16;
  /// Quota of the flow's user account.
  double UserQuota = 1e12;
  /// When true, committed schedules are executed under runtime
  /// deviations (Execution) and actual completions / wall-limit kills
  /// are recorded in the per-job stats.
  bool ExecuteWithDeviations = false;
  ExecutionConfig Execution;
  /// Ignored (see InvalidationMode); not part of voConfigCanonical.
  InvalidationMode Invalidation = InvalidationMode::Index;
  /// How the metascheduler serves reallocations: the escalating staged
  /// repair (default) or the unconditional full rebuild (the
  /// differential oracle behind --reallocation=rebuild).
  ReallocationMode Reallocation = ReallocationMode::Repair;
  /// When true, every staged repair is re-derived by a reference
  /// rebuild and compared (VoRunResult::RepairOracle). Diagnostic-
  /// priced and side-effect-free: deliberately excluded from
  /// voConfigCanonical, like the journal toggle.
  bool RepairOracle = false;
};

/// The job-flow level runs one serial job manager per flow, so the
/// shard count is always 1. Kept because run provenance records it
/// (`"shards":1` in journals, BENCH files and profiles) and the
/// benchmark's child check reads it.
size_t resolveShardCount(size_t);

/// Result of one run.
struct VoRunResult {
  StrategyKind Kind = StrategyKind::S1;
  std::vector<VoJobStats> Jobs;
  /// Node utilization by committed compound jobs, percent, indexed by
  /// PerfGroup (Fast, Medium, Slow).
  double JobLoadPercent[3] = {0, 0, 0};
  /// Node utilization by background flows, percent, same indexing.
  double BackgroundLoadPercent[3] = {0, 0, 0};
  Tick Horizon = 0;
  size_t BackgroundJobs = 0;
  /// Aggregated repair-oracle tallies of every flow's metascheduler
  /// (all zero unless VoConfig::RepairOracle was set).
  RepairOracleStats RepairOracle;
};

/// Runs the whole simulation for one strategy type.
VoRunResult runVirtualOrganization(const VoConfig &Config, StrategyKind Kind,
                                   uint64_t Seed);

/// Canonical one-line text of every scheduling-relevant field of
/// \p Config plus the strategy \p Kind, `key=value` pairs in a fixed
/// order. Two runs with equal canonical text simulate the same
/// configuration; `cws-sim` and `cws-sweep` hash this text (see
/// `obs::configHashOf`) to verify that pooled runs really belong to one
/// scenario. The seed is deliberately excluded — seed replicas of a
/// scenario share the hash.
std::string voConfigCanonical(const VoConfig &Config, StrategyKind Kind);

/// Runs several *competing* flows in one virtual organization: jobs of
/// the shared arrival stream are dealt round-robin to one flow per
/// strategy type, so the flows intersect on the same nodes (Fig. 1's
/// flows i, j, k). Returns one result per flow, in \p Kinds order;
/// JobLoadPercent is attributed per flow.
std::vector<VoRunResult> runMultiFlowVo(const VoConfig &Config,
                                        const std::vector<StrategyKind> &Kinds,
                                        uint64_t Seed);

/// The label of each flow of a multi-flow run, in \p Kinds order: the
/// strategy name, plus a `#<index>` suffix when an earlier flow has the
/// same strategy type. The telemetry flow tracks use it.
std::vector<std::string> flowLabels(const std::vector<StrategyKind> &Kinds);

} // namespace cws

#endif // CWS_FLOW_VIRTUALORGANIZATION_H

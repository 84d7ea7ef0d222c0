//===-- job/Generator.h - Randomized compound-job workloads -----*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The randomized workload of the paper's simulation studies: layered
/// DAG jobs whose task completion-time estimations, computation volumes
/// and data transfer times are uniform with a 2..3x spread, and whose
/// completion time (deadline) is fixed per job.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_JOB_GENERATOR_H
#define CWS_JOB_GENERATOR_H

#include "job/Job.h"
#include "support/Prng.h"

namespace cws {

/// Workload parameters (defaults follow Section 4's description).
struct WorkloadConfig {
  /// Task count per job.
  unsigned MinTasks = 5;
  unsigned MaxTasks = 12;
  /// Maximum task parallelism degree (layer width).
  unsigned MaxWidth = 4;
  /// Reference execution ticks, uniform; Hi/Lo is the paper's "difference
  /// equal to 2...3" between tasks.
  Tick RefTicksLo = 2;
  Tick RefTicksHi = 6;
  /// Computation volume per reference tick (Fig. 2a uses 10).
  double VolumePerRefTick = 10.0;
  /// Base data transfer ticks per edge, uniform.
  Tick TransferLo = 1;
  Tick TransferHi = 3;
  /// Probability of each optional extra edge between adjacent layers.
  double EdgeDensity = 0.35;
  /// Fixed completion time: Deadline = Release +
  /// DeadlineSlack * criticalPathRefTicks (a slack below ~1 is
  /// unsatisfiable even on an empty, all-fast environment).
  double DeadlineSlack = 1.5;

  /// The largest slack whose deadline spans stay below 2^62 ticks, so a
  /// deadline fits a `Tick`: a critical path has at most MaxTasks tasks
  /// of RefTicksHi reference ticks.
  double maxDeadlineSlack() const {
    return 0x1p62 /
           (static_cast<double>(MaxTasks) * static_cast<double>(RefTicksHi));
  }
};

/// Deterministic generator of randomized compound jobs.
class JobGenerator {
public:
  JobGenerator(WorkloadConfig Config, uint64_t Seed);

  /// Produces the next job (ids are sequential) released at \p Release.
  Job next(Tick Release = 0);

  const WorkloadConfig &config() const { return Config; }

private:
  WorkloadConfig Config;
  Prng Rng;
  unsigned NextId = 0;
};

} // namespace cws

#endif // CWS_JOB_GENERATOR_H

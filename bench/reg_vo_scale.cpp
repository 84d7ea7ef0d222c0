//===-- bench/reg_vo_scale.cpp - VO runs along a job-count curve ----------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs cws-sim's standard VO (S1, seed 7, deadline slack 2, one build
/// lane) at 1,000, 2,000, 4,000 and 8,000 jobs. The longer run schedules
/// against a longer history, but a scratch grid copies only the
/// reservations that end after the scheduling moment, and the repair
/// and shift scans read only the reservations that overlap the slots
/// they test, so neither count per job should grow with it. Each run's
/// outcome and work are exact work counters, and two checks require the
/// reservations copied per job (`strategy.build` and `meta.repair`
/// together) and the reservations scanned per job (`meta.repair` and
/// `commit.apply` together) to stay within ±10% of the 1,000-job run's
/// along the curve. Wall time and jobs/s are advisory metrics.
///
//===----------------------------------------------------------------------===//

#include "harness.h"
#include "metrics/QoS.h"
#include "obs/Metrics.h"

#include <chrono>
#include <cmath>
#include <string>

using namespace cws;

namespace {

constexpr uint64_t Seed = 7;
constexpr size_t Sizes[] = {1000, 2000, 4000, 8000};
/// How far the reservations copied and scanned per job may move along
/// the curve.
constexpr double PerJobTolerance = 0.10;

/// Tracks one per-job count along the curve: whether every size stays
/// within the tolerance of the first.
struct FlatAlongCurve {
  double Base = 0;
  bool Flat = true;
  void add(uint64_t Count, size_t Jobs) {
    double PerJob = static_cast<double>(Count) / static_cast<double>(Jobs);
    if (Base == 0)
      Base = PerJob;
    else
      Flat = Flat && std::abs(PerJob / Base - 1.0) <= PerJobTolerance;
  }
  bool holds() const { return Base > 0 && Flat; }
};

} // namespace

CWS_BENCH(vo_scale,
          "cws-sim's VO at 1k, 2k, 4k and 8k jobs on one lane: work per "
          "job along the curve",
          /*Reps=*/1, /*Warmup=*/0, /*Profile=*/true) {
  Ctx.setSeed(Seed);
  Ctx.setExecSeed(Seed);
  std::string Canon = "strategy=S1\nslack=2\nlanes=1\njobs=";
  for (size_t Jobs : Sizes)
    Canon += std::to_string(Jobs) + ",";
  Ctx.setConfig(Canon + "\n");

  FlatAlongCurve Copied, Scanned;
  for (size_t Jobs : Sizes) {
    VoConfig Config;
    Config.JobCount = Jobs;
    Config.Workload.DeadlineSlack = 2.0;

    obs::Counter &Builds =
        obs::Registry::global().counter("cws_strategy_builds_total");
    uint64_t Builds0 = Builds.value();
    uint64_t BuildCopied0 =
        bench::phaseWork("strategy.build", "intervals_copied");
    uint64_t RepairCopied0 =
        bench::phaseWork("meta.repair", "intervals_copied");
    uint64_t RepairScanned0 =
        bench::phaseWork("meta.repair", "intervals_scanned");
    uint64_t ApplyScanned0 =
        bench::phaseWork("commit.apply", "intervals_scanned");
    uint64_t Labels0 = bench::phaseWork("chain.dp", "labels");
    auto T0 = std::chrono::steady_clock::now();
    VoRunResult Run = runVirtualOrganization(Config, StrategyKind::S1, Seed);
    double Seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - T0)
                         .count();
    uint64_t BuildCopied =
        bench::phaseWork("strategy.build", "intervals_copied") - BuildCopied0;
    uint64_t RepairCopied =
        bench::phaseWork("meta.repair", "intervals_copied") - RepairCopied0;
    uint64_t RepairScanned =
        bench::phaseWork("meta.repair", "intervals_scanned") - RepairScanned0;
    uint64_t ApplyScanned =
        bench::phaseWork("commit.apply", "intervals_scanned") - ApplyScanned0;

    const std::string Key = "jobs" + std::to_string(Jobs) + ".";
    Ctx.setWork(Key + "committed", summarizeVo(Run).Committed);
    Ctx.setWork(Key + "builds", Builds.value() - Builds0);
    Ctx.setWork(Key + "build_intervals_copied", BuildCopied);
    Ctx.setWork(Key + "repair_intervals_copied", RepairCopied);
    Ctx.setWork(Key + "repair_intervals_scanned", RepairScanned);
    Ctx.setWork(Key + "apply_intervals_scanned", ApplyScanned);
    Ctx.setWork(Key + "dp_labels",
                bench::phaseWork("chain.dp", "labels") - Labels0);
    Ctx.addMetric(Key + "wall_s", Seconds);
    Ctx.addMetric(Key + "jobs_per_s", static_cast<double>(Jobs) / Seconds);

    Copied.add(BuildCopied + RepairCopied, Jobs);
    Scanned.add(RepairScanned + ApplyScanned, Jobs);
  }
  Ctx.check("reservations copied per job stay within 10% along the curve",
            Copied.holds());
  Ctx.check("reservations scanned per job stay within 10% along the curve",
            Scanned.holds());
}

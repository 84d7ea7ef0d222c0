//===-- tools/cws-sim.cpp - Command line VO simulator ---------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// cws-sim: run the two-level virtual-organization simulation from the
/// command line and report QoS aggregates or a per-job CSV. Usage:
///
///   cws-sim [--strategy S1|S2|S3|MS1] [--jobs N] [--seed S]
///           [--slack X] [--csv 1]
///           [--trace out.json] [--trace-categories core,flow]
///           [--metrics out.prom] [--journal run.jsonl]
///           [--timeseries ts.csv] [--sample-every N]
///           [--profile profile.json]
///           [--arrival-scale X] [--background-scale X]
///           [--fast-share Y] [--scenario ID]
///
/// The scale flags are the sweep axes `cws-sweep` drives: they multiply
/// the arrival rate (divide interarrival gaps) and background load
/// (divide background mean gaps), and set the fast-node share. All are
/// the identity at their defaults. --scenario labels the run's
/// provenance stamp; every journal / time-series artifact carries
/// (seed, config hash, scenario, CLI) so aggregators can verify what
/// they pool.
///
//===----------------------------------------------------------------------===//

#include "flow/VirtualOrganization.h"
#include "metrics/Export.h"
#include "metrics/QoS.h"
#include "obs/Provenance.h"
#include "obs/TimeSeries.h"
#include "support/Flags.h"
#include "support/Table.h"

#include <algorithm>
#include <cmath>
#include <iostream>

using namespace cws;

int main(int Argc, char **Argv) {
  std::string StrategyName = "S1";
  int64_t Jobs = 200;
  int64_t Seed = 42;
  double Slack = 2.0;
  int64_t Csv = 0;
  int64_t Exec = 0;
  ObsArtifacts Obs;
  int64_t SampleEvery = 25;
  Flags F;
  F.addString("strategy", &StrategyName, "S1 | S2 | S3 | MS1",
              {"S1", "S2", "S3", "MS1"});
  F.addInt("jobs", &Jobs, "compound jobs in the flow", /*AtLeast=*/0);
  F.addInt("seed", &Seed, "run seed");
  F.addReal("slack", &Slack, "deadline slack factor", /*Above=*/0,
            /*AtMost=*/WorkloadConfig().maxDeadlineSlack());
  F.addInt("csv", &Csv, "print the per-job CSV instead of a summary (0/1)",
           /*AtLeast=*/0, /*AtMost=*/1);
  F.addInt("exec", &Exec,
           "execute committed schedules under runtime deviations (0/1)",
           /*AtLeast=*/0, /*AtMost=*/1);
  Obs.addFlags(F);
  F.addInt("sample-every", &SampleEvery,
           "periodic telemetry frame cadence in simulation ticks",
           /*AtLeast=*/1);
  std::string Reallocation = "repair";
  F.addString("reallocation", &Reallocation,
              "how stale strategies are replaced: repair (escalating "
              "staged repair) or rebuild (unconditional full rebuild "
              "oracle)",
              {"repair", "rebuild"});
  bool RepairOracle = false;
  F.addBool("repair-oracle", &RepairOracle,
            "re-derive every staged repair with a side-effect-free "
            "reference rebuild and print the oracle tallies (feasible, "
            "affordable, cost vs rebuild)");
  double ArrivalScale = 1.0;
  double BackgroundScale = 1.0;
  double FastShare = -1.0;
  std::string Scenario = "single";
  F.addReal("arrival-scale", &ArrivalScale,
            "arrival-rate multiplier: interarrival gaps divide by this "
            "(sweep axis; 1 = paper default)",
            /*Above=*/0);
  F.addReal("background-scale", &BackgroundScale,
            "background-load multiplier: background mean gaps divide by "
            "this (sweep axis; 1 = paper default)",
            /*Above=*/0);
  F.addReal("fast-share", &FastShare,
            "share of fast nodes in the grid (sweep axis; negative = "
            "paper default 1/3)");
  F.addString("scenario", &Scenario,
              "scenario id stamped into artifact provenance");
  if (!F.parse(Argc, Argv))
    return 0;
  if (FastShare > 1.0) {
    std::fprintf(stderr, "cws-sim: --fast-share must be in [0, 1]\n");
    return 2;
  }

  StrategyKind Kind = StrategyKind::S1;
  for (StrategyKind K : {StrategyKind::S1, StrategyKind::S2,
                         StrategyKind::S3, StrategyKind::MS1})
    if (StrategyName == strategyName(K))
      Kind = K;

  VoConfig Config;
  Config.JobCount = static_cast<size_t>(Jobs);
  Config.Workload.DeadlineSlack = Slack;
  Config.ExecuteWithDeviations = Exec != 0;
  Config.Reallocation = Reallocation == "rebuild"
                            ? ReallocationMode::Rebuild
                            : ReallocationMode::Repair;
  Config.RepairOracle = RepairOracle;
  // Sweep axes. Gaps scale by 1/factor so a scale of 2 means twice the
  // arrival rate / background pressure; max(1, ...) keeps gaps legal.
  auto ScaleGap = [](Tick Gap, double Scale) {
    auto Scaled = static_cast<Tick>(
        std::llround(static_cast<double>(Gap) / Scale));
    return Scaled < 1 ? Tick(1) : Scaled;
  };
  Config.InterarrivalLo = ScaleGap(Config.InterarrivalLo, ArrivalScale);
  Config.InterarrivalHi = ScaleGap(Config.InterarrivalHi, ArrivalScale);
  Config.Background.MeanGapFast =
      ScaleGap(Config.Background.MeanGapFast, BackgroundScale);
  Config.Background.MeanGapMedium =
      ScaleGap(Config.Background.MeanGapMedium, BackgroundScale);
  Config.Background.MeanGapSlow =
      ScaleGap(Config.Background.MeanGapSlow, BackgroundScale);
  if (FastShare >= 0) {
    Config.GridCfg.FastShare = FastShare;
    // Keep the band shares a partition: medium takes at most what fast
    // leaves, the remainder stays slow.
    Config.GridCfg.MediumShare =
        std::min(Config.GridCfg.MediumShare, 1.0 - FastShare);
  }

  // Stamp provenance into every enabled artifact before the run: the
  // hash covers the *effective* configuration (after sweep-axis
  // application), so replicas of one scenario agree and any divergent
  // knob disagrees loudly at pooling time.
  obs::RunProvenance Prov;
  Prov.Stamped = true;
  Prov.Seed = static_cast<uint64_t>(Seed);
  Prov.ConfigHash = obs::configHashOf(voConfigCanonical(Config, Kind));
  Prov.ScenarioId = Scenario;
  Prov.Shards = static_cast<int64_t>(resolveShardCount(0));
  Prov.Cli = obs::cliStringOf(Argc, Argv);
  obs::TimeSeriesConfig Sampling;
  Sampling.SampleEvery = SampleEvery;
  Obs.start(Prov, Sampling);

  VoRunResult Run =
      runVirtualOrganization(Config, Kind, static_cast<uint64_t>(Seed));

  // Publish the QoS aggregates before any snapshot is written, so one
  // --metrics file carries engine internals and results together. The
  // single flow also appears under its strategy label, matching the
  // flow ids journal events carry.
  VoAggregates A = summarizeVo(Run);
  publishVoAggregates(A);
  publishFlowAggregates(A, strategyName(Kind));
  if (int Rc = Obs.finish("cws-sim"))
    return Rc;

  if (RepairOracle) {
    const RepairOracleStats &O = Run.RepairOracle;
    std::fprintf(stderr,
                 "cws-sim: repair oracle: %llu checked, %llu feasible, "
                 "%llu affordable, %llu not worse than rebuild, "
                 "repair cost %.1f vs rebuild cost %.1f\n",
                 static_cast<unsigned long long>(O.Checked),
                 static_cast<unsigned long long>(O.Feasible),
                 static_cast<unsigned long long>(O.Affordable),
                 static_cast<unsigned long long>(O.NotWorse),
                 O.RepairCost, O.RebuildCost);
  }

  if (Csv) {
    std::cout << voStatsCsv(Run.Jobs);
    return 0;
  }

  std::cout << "strategy " << strategyName(Kind) << ", " << Jobs
            << " jobs, seed " << Seed << "\n\n";
  Table T({"metric", "value"});
  T.addRow({"admissible %", Table::num(A.AdmissiblePercent, 1)});
  T.addRow({"committed %", Table::num(A.CommittedPercent, 1)});
  T.addRow({"rejected %", Table::num(A.RejectedPercent, 1)});
  T.addRow({"switched %", Table::num(A.SwitchedPercent, 1)});
  T.addRow({"reallocated %", Table::num(A.ReallocatedPercent, 1)});
  T.addRow({"mean quota cost", Table::num(A.MeanCost, 1)});
  T.addRow({"mean CF", Table::num(A.MeanCf, 1)});
  T.addRow({"mean run ticks", Table::num(A.MeanRunTicks, 1)});
  T.addRow({"mean response ticks", Table::num(A.MeanResponseTicks, 1)});
  T.addRow({"mean strategy TTL", Table::num(A.MeanTtl, 1)});
  T.addRow({"mean start deviation", Table::num(A.MeanStartDeviation, 2)});
  T.addRow({"deviation / run ratio",
            Table::num(A.MeanStartDeviationRatio, 3)});
  if (Exec)
    T.addRow({"execution killed %",
              Table::num(A.ExecutionKilledPercent, 1)});
  T.addRow({"background jobs", std::to_string(Run.BackgroundJobs)});
  T.addRow({"horizon (ticks)", std::to_string(Run.Horizon)});
  for (PerfGroup G :
       {PerfGroup::Fast, PerfGroup::Medium, PerfGroup::Slow})
    T.addRow({std::string("job load, ") + perfGroupName(G) + " %",
              Table::num(Run.JobLoadPercent[static_cast<size_t>(G)], 1)});
  T.print(std::cout);
  return 0;
}

//===-- tools/cws-sched.cpp - Command line scheduler ----------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// cws-sched: schedule a job description from a file (or stdin with
/// "-") and report the strategy. Usage:
///
///   cws-sched --file job.cws [--strategy S1|S2|S3|MS1]
///             [--now T] [--gantt 1] [--csv 1]
///             [--trace out.json] [--trace-categories core]
///             [--metrics out.prom] [--journal run.jsonl]
///             [--timeseries ts.csv] [--profile profile.json]
///
/// The description must declare nodes (or pass --fig2grid 1 to use the
/// paper's four-type environment).
///
//===----------------------------------------------------------------------===//

#include "core/Dot.h"
#include "core/Gantt.h"
#include "core/Strategy.h"
#include "lang/Parser.h"
#include "metrics/Export.h"
#include "obs/Metrics.h"
#include "obs/Provenance.h"
#include "obs/TimeSeries.h"
#include "resource/Network.h"
#include "support/File.h"
#include "support/Flags.h"
#include "support/Table.h"

#include <iostream>

using namespace cws;

int main(int Argc, char **Argv) {
  std::string File;
  std::string StrategyName = "S1";
  int64_t Now = 0;
  int64_t Gantt = 1;
  int64_t Csv = 0;
  int64_t Dot = 0;
  int64_t UseFig2Grid = 0;
  ObsArtifacts Obs;
  Flags F;
  F.addString("file", &File, "job description file ('-' for stdin)");
  F.addString("strategy", &StrategyName, "S1 | S2 | S3 | MS1",
              {"S1", "S2", "S3", "MS1"});
  F.addInt("now", &Now, "scheduling moment (ticks)", /*AtLeast=*/0);
  F.addInt("gantt", &Gantt, "render an ASCII Gantt chart (0/1)",
           /*AtLeast=*/0, /*AtMost=*/1);
  F.addInt("csv", &Csv, "print CSV instead of tables (0/1)", /*AtLeast=*/0,
           /*AtMost=*/1);
  F.addInt("dot", &Dot, "print the job as a Graphviz digraph and exit (0/1)",
           /*AtLeast=*/0, /*AtMost=*/1);
  F.addInt("fig2grid", &UseFig2Grid,
           "use the paper's Fig. 2 environment (0/1)", /*AtLeast=*/0,
           /*AtMost=*/1);
  Obs.addFlags(F);
  if (!F.parse(Argc, Argv))
    return 0;

  if (File.empty()) {
    std::fprintf(stderr, "cws-sched: --file is required (try --help)\n");
    return 2;
  }
  std::string Text;
  if (!readFile(File, Text)) {
    std::fprintf(stderr, "cws-sched: cannot open '%s'\n", File.c_str());
    return 2;
  }

  ParseResult R = parseJobDescription(Text);
  if (!R.ok()) {
    std::fprintf(stderr, "%s", formatDiagnostics(R.Errors).c_str());
    return 1;
  }
  Grid Env = UseFig2Grid ? Grid::makeFig2() : std::move(R.Env);
  if (Env.empty()) {
    std::fprintf(stderr,
                 "cws-sched: no nodes declared (add 'node perf ...' "
                 "lines or pass --fig2grid 1)\n");
    return 1;
  }

  if (Dot) {
    std::cout << jobDot(R.TheJob);
    return 0;
  }

  StrategyConfig Config;
  for (StrategyKind K : {StrategyKind::S1, StrategyKind::S2,
                         StrategyKind::S3, StrategyKind::MS1})
    if (StrategyName == strategyName(K))
      Config.Kind = K;

  // Provenance for the one-shot build: no seed or VoConfig exists, so
  // the config hash covers the job description text plus the strategy
  // knobs that shape the build.
  obs::RunProvenance Prov;
  Prov.Stamped = true;
  Prov.Seed = 0;
  Prov.ConfigHash = obs::configHashOf(
      std::string("sched strategy=") + strategyName(Config.Kind) +
      " now=" + std::to_string(Now) + "\n" + Text);
  Prov.ScenarioId = "single";
  Prov.Cli = obs::cliStringOf(Argc, Argv);
  Obs.start(Prov);
  obs::TimeSeries &Ts = obs::TimeSeries::global();
  if (!Obs.TimeSeries.empty())
    Ts.addDefaultProbes(obs::Registry::global());

  Network Net;
  Strategy S = Strategy::build(R.TheJob, Env, Net, Config, /*Owner=*/1,
                               Now);

  // A one-shot build has no simulator clock driving periodic frames;
  // record a single post-build frame so the probes still export.
  Ts.sampleEvent(Now, "build");
  if (int Rc = Obs.finish("cws-sched"))
    return Rc;

  if (Csv) {
    std::cout << strategyCsv(S);
    if (const ScheduleVariant *Best = S.bestByCost())
      std::cout << "\n" << distributionCsv(S.scheduledJob(),
                                           Best->Result.Dist);
    return S.admissible() ? 0 : 1;
  }

  std::cout << "job " << R.TheJob.id() << " with " << R.TheJob.taskCount()
            << " tasks; strategy " << strategyName(S.kind()) << " has "
            << S.variants().size() << " variants, " << S.feasibleCount()
            << " feasible\n\n";
  Table T({"#", "level perf", "bias", "feasible", "start", "makespan",
           "econ cost", "CF"});
  size_t Idx = 0;
  for (const auto &V : S.variants()) {
    const Distribution &D = V.Result.Dist;
    T.addRow({std::to_string(Idx++), Table::num(V.LevelPerf, 2),
              optimizationBiasName(V.Bias), V.feasible() ? "yes" : "no",
              V.feasible() ? std::to_string(D.startTime()) : "-",
              V.feasible() ? std::to_string(D.makespan()) : "-",
              V.feasible() ? Table::num(D.economicCost(), 1) : "-",
              V.feasible()
                  ? std::to_string(D.costFunction(S.scheduledJob()))
                  : "-"});
  }
  T.print(std::cout);

  const ScheduleVariant *Best = S.bestByCost();
  if (!Best) {
    std::cout << "\nno admissible schedule within the deadline\n";
    return 1;
  }
  if (Gantt) {
    GanttOptions Options;
    Options.ShowIdleNodes = true;
    std::cout << "\ncheapest supporting schedule:\n"
              << renderGantt(S.scheduledJob(), Env, Best->Result.Dist,
                             Options);
  }
  return 0;
}

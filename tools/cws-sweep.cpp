//===-- tools/cws-sweep.cpp - Monte-Carlo scenario sweep driver -----------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// cws-sweep: expand a declarative scenario grid into runs, fan them
/// across `cws-sim` worker processes, and pool per-scenario statistics
/// (mean, stddev, 95% CI, p50/p90/p99) of every QoS indicator. Usage:
///
///   cws-sweep --grid examples/sweep.grid --workers 4
///             [--sim build/tools/cws-sim] [--out sweep.csv]
///             [--report sweep.md] [--slo examples/sweep.slo]
///             [--runs-dir sweep-runs] [--keep-runs 1]
///
/// `--out` writes the statistics store CSV (`cws-report --sweep` reads
/// it back); `--report` renders the Markdown sweep report; `--slo`
/// gates the exit code on quantile rules like
/// `deadline_miss_rate.p90 <= 0.05 across seeds`. Pooled statistics are
/// identical at any --workers value: runs are deterministic per seed
/// and pooling is order-insensitive. Exit codes: 0 ok, 1 SLO breach,
/// 2 usage / run / pooling error.
///
//===----------------------------------------------------------------------===//

#include "support/File.h"
#include "support/Flags.h"
#include "sweep/Runner.h"
#include "sweep/Scenario.h"

#include <cstdio>
#include <iostream>
#include <string>

using namespace cws;

int main(int Argc, char **Argv) {
  std::string GridFile;
  std::string SimBinary;
  std::string OutFile;
  std::string ReportFile;
  std::string SloFile;
  std::string RunsDir = "sweep-runs";
  int64_t Workers = 2;
  int64_t KeepRuns = 0;
  int64_t Quiet = 0;
  Flags F;
  F.addString("grid", &GridFile, "scenario grid file (required)");
  F.addString("sim", &SimBinary,
              "cws-sim binary to spawn (default: next to cws-sweep)");
  F.addString("out", &OutFile,
              "write the pooled statistics CSV here (read back with "
              "cws-report --sweep)");
  F.addString("report", &ReportFile,
              "write the Markdown sweep report here");
  F.addString("slo", &SloFile,
              "SLO rules; quantile rules ('indicator.p90 <= bound "
              "across seeds') gate the pooled distributions, exit 1 on "
              "breach");
  F.addString("runs-dir", &RunsDir, "directory for per-run artifacts");
  F.addInt("workers", &Workers, "concurrent worker processes");
  F.addInt("keep-runs", &KeepRuns,
           "keep per-run journals / series / logs after pooling (0/1)",
           /*AtLeast=*/0, /*AtMost=*/1);
  F.addInt("quiet", &Quiet, "suppress per-run progress lines (0/1)",
           /*AtLeast=*/0, /*AtMost=*/1);
  if (!F.parse(Argc, Argv))
    return 0;

  if (GridFile.empty()) {
    std::fprintf(stderr, "cws-sweep: --grid is required (try --help)\n");
    return 2;
  }
  if (Workers <= 0) {
    std::fprintf(stderr, "cws-sweep: --workers must be positive\n");
    return 2;
  }
  if (SimBinary.empty()) {
    // Default: cws-sim sits next to this binary.
    std::string Self = Argv[0];
    size_t Slash = Self.rfind('/');
    SimBinary = Slash == std::string::npos
                    ? std::string("cws-sim")
                    : Self.substr(0, Slash + 1) + "cws-sim";
  }

  sweep::SweepGrid Grid;
  if (!readArtifact("cws-sweep", GridFile, Grid, sweep::parseSweepGrid))
    return 2;

  size_t Scenarios = sweep::sweepScenarioCount(Grid);
  std::fprintf(stderr,
               "cws-sweep: %zu scenarios x %llu seeds = %llu runs, "
               "%lld workers\n",
               Scenarios, static_cast<unsigned long long>(Grid.Seeds),
               static_cast<unsigned long long>(Scenarios * Grid.Seeds),
               static_cast<long long>(Workers));

  sweep::SweepOptions Opts;
  Opts.SimBinary = SimBinary;
  Opts.RunsDir = RunsDir;
  Opts.Workers = static_cast<unsigned>(Workers);
  Opts.KeepRuns = KeepRuns != 0;
  if (!Quiet)
    Opts.Progress = [](const std::string &Line) {
      std::fprintf(stderr, "cws-sweep: %s\n", Line.c_str());
    };

  obs::SweepStore Store;
  std::string Error;
  if (!sweep::runSweep(Grid, Opts, Store, Error)) {
    std::fprintf(stderr, "cws-sweep: %s\n", Error.c_str());
    return 2;
  }

  if (!OutFile.empty() && !writeTextFile(OutFile, obs::sweepCsv(Store))) {
    std::fprintf(stderr, "cws-sweep: cannot write '%s'\n", OutFile.c_str());
    return 2;
  }

  std::vector<obs::SloResult> Slo;
  if (!SloFile.empty()) {
    std::vector<obs::SloRule> Rules;
    if (!readArtifact("cws-sweep", SloFile, Rules, obs::parseSloFile))
      return 2;
    Slo = obs::evaluateSweepSlo(Rules, Store);
  }
  std::string Breaches = obs::renderSloBreaches("cws-sweep", Slo);
  std::fputs(Breaches.c_str(), stderr);

  std::string Report = obs::renderSweepReport(Store, Slo);
  if (ReportFile.empty()) {
    std::cout << Report;
  } else if (!writeTextFile(ReportFile, Report)) {
    std::fprintf(stderr, "cws-sweep: cannot write '%s'\n",
                 ReportFile.c_str());
    return 2;
  }
  if (!OutFile.empty())
    std::fprintf(stderr, "cws-sweep: wrote pooled statistics to %s\n",
                 OutFile.c_str());
  return Breaches.empty() ? 0 : 1;
}

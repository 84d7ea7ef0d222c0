//===-- tools/cws-report.cpp - Markdown run reporter + SLO gate -----------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// cws-report: join a decision journal with a telemetry time series
/// into one Markdown run report, and gate on service-level objectives.
/// Usage:
///
///   cws-sim --jobs 200 --journal=run.jsonl --timeseries=ts.csv
///           --profile=profile.json
///   cws-report --journal=run.jsonl --timeseries=ts.csv
///              [--profile=profile.json] [--slo=run.slo] [--out report.md]
///   cws-report --sweep=sweep.csv [--slo=sweep.slo] [--out report.md]
///
/// The report renders an overview, the utilization summary with the
/// top-5 most-contended nodes, the reallocation/invalidation timeline,
/// and the per-flow QoS table. With `--profile` it adds the "Where the
/// time went" phase breakdown and exposes `phase.*` indicators to SLO
/// rules (`phase.chain.dp.self_us <= 500000`); without a profile those
/// rules fail closed. With `--slo` each rule of the file
/// (`indicator <= bound`, `#` comments) is evaluated against the run's
/// indicators and any breach makes the tool exit 1 — a CI-gateable
/// alerting analog. A rule without a value breaches too, and its line
/// says why (a distribution rule, no profile, an indicator this run
/// leaves undefined, or an unknown name).
///
/// With `--sweep` the tool reads a pooled statistics store written by
/// `cws-sweep --out` and renders the sweep report instead: per-scenario
/// distributions, per-axis trends, crossing-point estimates, and the
/// SLO verdict. Sweep SLO rules may gate pooled statistics
/// (`deadline_miss_rate.p90 <= 0.05 across seeds`); distribution rules
/// fail closed in single-run mode. Exit codes: 0 ok, 1 SLO breach or
/// invalid journal, 2 usage / I/O / parse error — the convention
/// shared by cws-explain, cws-sweep and cws-diff.
///
//===----------------------------------------------------------------------===//

#include "obs/Explain.h"
#include "obs/Journal.h"
#include "obs/Report.h"
#include "support/File.h"
#include "support/Flags.h"

#include <cstdio>
#include <iostream>

using namespace cws;

int main(int Argc, char **Argv) {
  std::string JournalFile;
  std::string TimeSeriesFile;
  std::string SweepFile;
  std::string SloFile;
  std::string OutFile;
  Flags F;
  F.addString("journal", &JournalFile,
              "decision journal written by cws-sim --journal (required "
              "unless --sweep)");
  F.addString("timeseries", &TimeSeriesFile,
              "telemetry CSV written by cws-sim --timeseries");
  std::string ProfileFile;
  F.addString("profile", &ProfileFile,
              "phase profile written by cws-sim --profile; adds the "
              "'Where the time went' section and the phase.* SLO "
              "indicators");
  F.addString("sweep", &SweepFile,
              "pooled statistics CSV written by cws-sweep --out; renders "
              "the sweep report instead of a run report");
  F.addString("slo", &SloFile,
              "SLO rules ('indicator <= bound' lines, pooled-statistic "
              "rules like 'indicator.p90 <= bound across seeds' with "
              "--sweep); any breach makes the exit code 1");
  F.addString("out", &OutFile,
              "write the Markdown report here instead of stdout");
  if (!F.parse(Argc, Argv))
    return 0;

  const char *Tool = "cws-report";
  std::vector<obs::SloRule> Rules;
  if (!SloFile.empty() &&
      !readArtifact(Tool, SloFile, Rules, obs::parseSloFile))
    return 2;
  std::vector<obs::SloResult> Slo;

  //===--- Sweep mode ----------------------------------------------------===//
  if (!SweepFile.empty()) {
    if (!JournalFile.empty() || !TimeSeriesFile.empty() ||
        !ProfileFile.empty()) {
      std::fprintf(stderr, "cws-report: --sweep excludes "
                           "--journal/--timeseries/--profile\n");
      return 2;
    }
    obs::SweepStore Store;
    if (!readArtifact(Tool, SweepFile, Store, obs::parseSweepCsv))
      return 2;
    if (!SloFile.empty())
      Slo = obs::evaluateSweepSlo(Rules, Store);
    std::string Breaches = obs::renderSloBreaches("cws-report", Slo);
    std::fputs(Breaches.c_str(), stderr);
    std::string Report = obs::renderSweepReport(Store, Slo);
    if (OutFile.empty()) {
      std::cout << Report;
    } else if (!writeTextFile(OutFile, Report)) {
      std::fprintf(stderr, "cws-report: cannot write '%s'\n",
                   OutFile.c_str());
      return 2;
    }
    return Breaches.empty() ? 0 : 1;
  }

  if (JournalFile.empty()) {
    std::fprintf(stderr, "cws-report: --journal is required (try --help)\n");
    return 2;
  }

  obs::ParsedJournal J;
  if (!readArtifact(Tool, JournalFile, J, obs::parseJournalJsonl))
    return 2;
  std::vector<std::string> Violations = obs::validateJournal(J);
  if (!Violations.empty()) {
    std::fprintf(stderr, "cws-report: %s: journal fails validation:\n",
                 JournalFile.c_str());
    for (const std::string &V : Violations)
      std::fprintf(stderr, "  %s\n", V.c_str());
    return 1;
  }

  obs::ParsedTimeSeries Ts;
  if (!TimeSeriesFile.empty() &&
      !readArtifact(Tool, TimeSeriesFile, Ts, obs::parseTimeSeriesCsv))
    return 2;

  obs::ParsedProfile Profile;
  bool HasProfile = !ProfileFile.empty();
  if (HasProfile &&
      !readArtifact(Tool, ProfileFile, Profile, obs::parseProfileJson))
    return 2;

  if (!SloFile.empty())
    Slo = obs::evaluateSlo(Rules, J, Ts, HasProfile ? &Profile : nullptr);
  std::string Breaches = obs::renderSloBreaches("cws-report", Slo);
  std::fputs(Breaches.c_str(), stderr);

  std::string Report =
      obs::renderRunReport(J, Ts, Slo, HasProfile ? &Profile : nullptr);
  if (OutFile.empty()) {
    std::cout << Report;
  } else if (!writeTextFile(OutFile, Report)) {
    std::fprintf(stderr, "cws-report: cannot write '%s'\n",
                 OutFile.c_str());
    return 2;
  }
  return Breaches.empty() ? 0 : 1;
}

//===-- tools/cws-diff.cpp - Semantic differential run analysis -----------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// cws-diff: compare two run artifacts semantically instead of
/// byte-wise. Usage:
///
///   cws-diff [options] <A> <B>
///   cws-diff --against-baseline DIR --journal J [--timeseries TS]
///   cws-diff --digest <file>
///
/// The artifact kind (decision journal, telemetry time series, or
/// pooled sweep statistics) is detected from the content, and every
/// comparison is exact. Journal comparisons align events per job,
/// compare the provenance header field by field under `--allow-meta`,
/// and localize the first diverging (job, event) with both runs' cause
/// chains. Series comparisons match every row; sweep comparisons match
/// every pooled statistic.
///
/// `--against-baseline DIR` checks freshly produced artifacts against
/// the committed golden baselines in DIR (see examples/baseline/): a
/// digest fast path first, then the semantic diff. Regenerate
/// baselines with tools/update-baselines.sh after intentional
/// behavior changes.
///
/// Exit codes: 0 identical, 1 divergence, 2 usage / I/O / parse error.
///
//===----------------------------------------------------------------------===//

#include "obs/Diff.h"
#include "obs/Journal.h"
#include "obs/Provenance.h"
#include "obs/Report.h"
#include "support/File.h"
#include "support/Flags.h"
#include "support/Text.h"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

using namespace cws;

static void printUsage() {
  std::fprintf(
      stderr,
      "usage: cws-diff [options] <A> <B>\n"
      "       cws-diff --against-baseline DIR --journal J [--timeseries T]\n"
      "       cws-diff --digest <file>\n"
      "\n"
      "exit codes: 0 identical, 1 divergence, 2 usage or I/O\n");
}

namespace {
enum class Mode { Unknown, Journal, Series, Sweep };
} // namespace

/// Sniffs the artifact kind from its leading lines.
static Mode detectMode(const std::string &Text) {
  LineReader In(Text);
  while (In.next()) {
    const std::string &Line = In.line();
    if (Line.empty())
      continue;
    if (Line.find("\"journal.meta\"") != std::string::npos)
      return Mode::Journal;
    if (Line.rfind("# cws-sweep statistics", 0) == 0)
      return Mode::Sweep;
    if (Line.rfind("# provenance", 0) == 0)
      continue; // Shared CSV comment; the header decides.
    if (Line.rfind("seq,tick,reason,series", 0) == 0)
      return Mode::Series;
    if (Line.rfind("scenario,axes,indicator", 0) == 0)
      return Mode::Sweep;
    break;
  }
  return Mode::Unknown;
}

static bool parseMetaList(const std::string &List, obs::MetaPolicy &Policy) {
  const std::pair<const char *, bool *> Fields[] = {
      {"seed", &Policy.AllowSeed},
      {"config_hash", &Policy.AllowConfigHash},
      {"scenario", &Policy.AllowScenario},
      {"shards", &Policy.AllowShards},
      {"cli", &Policy.AllowCli}};
  for (const auto &[Name, Allow] : Fields)
    *Allow = false;
  for (const std::string &Field : splitFields(List, ",", /*SkipEmpty=*/true)) {
    auto It = std::find_if(
        std::begin(Fields), std::end(Fields),
        [&Field](const auto &F) { return Field == F.first; });
    if (It == std::end(Fields)) {
      std::fprintf(stderr, "cws-diff: unknown meta field '%s'\n",
                   Field.c_str());
      return false;
    }
    *It->second = true;
  }
  return true;
}

/// Runs one A-vs-B comparison. Returns 0/1/2 per the tool contract and
/// appends the Markdown report section for `--report`.
static int diffOnce(const std::string &PathA, const std::string &PathB,
                    const obs::DiffOptions &Opts, bool Outcomes,
                    std::string &ReportOut) {
  std::string TextA, TextB;
  if (!readFile(PathA, TextA)) {
    std::fprintf(stderr, "cws-diff: cannot open '%s'\n", PathA.c_str());
    return 2;
  }
  if (!readFile(PathB, TextB)) {
    std::fprintf(stderr, "cws-diff: cannot open '%s'\n", PathB.c_str());
    return 2;
  }
  const Mode M = detectMode(TextA);
  const Mode MB = detectMode(TextB);
  if (M == Mode::Unknown || MB == Mode::Unknown) {
    std::fprintf(stderr, "cws-diff: cannot detect artifact kind of '%s'\n",
                 (M == Mode::Unknown ? PathA : PathB).c_str());
    return 2;
  }
  if (M != MB) {
    std::fprintf(stderr,
                 "cws-diff: '%s' and '%s' are different artifact kinds\n",
                 PathA.c_str(), PathB.c_str());
    return 2;
  }
  if (Outcomes && M != Mode::Journal) {
    std::fprintf(stderr, "cws-diff: --outcomes applies to journals only\n");
    return 2;
  }

  const char *Tool = "cws-diff";
  obs::DiffResult R;
  switch (M) {
  case Mode::Journal: {
    obs::ParsedJournal A, B;
    if (!parseArtifact(Tool, PathA, TextA, A, obs::parseJournalJsonl) ||
        !parseArtifact(Tool, PathB, TextB, B, obs::parseJournalJsonl))
      return 2;
    R = Outcomes ? obs::diffJournalOutcomes(A, B, Opts)
                 : obs::diffJournals(A, B, Opts);
    break;
  }
  case Mode::Series: {
    obs::ParsedTimeSeries A, B;
    if (!parseArtifact(Tool, PathA, TextA, A, obs::parseTimeSeriesCsv) ||
        !parseArtifact(Tool, PathB, TextB, B, obs::parseTimeSeriesCsv))
      return 2;
    R = obs::diffTimeSeries(A, B, Opts);
    break;
  }
  case Mode::Sweep: {
    obs::SweepStore A, B;
    if (!parseArtifact(Tool, PathA, TextA, A, obs::parseSweepCsv) ||
        !parseArtifact(Tool, PathB, TextB, B, obs::parseSweepCsv))
      return 2;
    R = obs::diffSweeps(A, B);
    break;
  }
  case Mode::Unknown:
    return 2; // Unreachable; rejected above.
  }

  std::cout << obs::renderDiffText(R, PathA, PathB);
  ReportOut += obs::renderDiffReport(R, PathA, PathB);
  return R.identical() ? 0 : 1;
}

/// `--digest`: canonical content digest used by baseline MANIFEST
/// files — fnv1a64 over the raw bytes, rendered like the config hash.
static int printDigest(const std::string &Path) {
  std::string Text;
  if (!readFile(Path, Text)) {
    std::fprintf(stderr, "cws-diff: cannot open '%s'\n", Path.c_str());
    return 2;
  }
  std::printf("0x%016llx  %s\n",
              static_cast<unsigned long long>(obs::fnv1a64(Text)),
              Path.c_str());
  return 0;
}

namespace {
struct BaselineEntry {
  std::string Digest;
  std::string File;
};
} // namespace

static bool parseManifest(const std::string &Text,
                          std::vector<BaselineEntry> &Out,
                          std::string &Error) {
  LineReader In(Text);
  while (In.next()) {
    if (In.line().empty() || In.line()[0] == '#')
      continue;
    std::vector<std::string> Fields =
        splitFields(In.line(), " \t", /*SkipEmpty=*/true);
    if (Fields.size() < 2) {
      Error = In.error("expected '<digest>  <file>'");
      return false;
    }
    Out.push_back({Fields[0], Fields[1]});
  }
  if (Out.empty()) {
    Error = "no baseline entries";
    return false;
  }
  return true;
}

/// `--against-baseline`: every MANIFEST entry must (a) still match its
/// committed digest (guards stale regeneration) and (b) semantically
/// match the corresponding fresh artifact. Matching fresh digests
/// short-circuit the parse.
static int diffAgainstBaseline(const std::string &Dir,
                               const std::string &JournalFile,
                               const std::string &TimeSeriesFile,
                               const obs::DiffOptions &Opts,
                               std::string &ReportOut) {
  std::vector<BaselineEntry> Entries;
  if (!readArtifact("cws-diff", Dir + "/MANIFEST", Entries, parseManifest))
    return 2;

  int Worst = 0;
  bool Compared = false;
  for (const BaselineEntry &E : Entries) {
    std::string Fresh;
    if (E.File.size() > 14 &&
        E.File.rfind(".journal.jsonl") == E.File.size() - 14)
      Fresh = JournalFile;
    else if (E.File.size() > 7 && E.File.rfind(".ts.csv") == E.File.size() - 7)
      Fresh = TimeSeriesFile;
    if (Fresh.empty())
      continue; // No fresh artifact of this kind supplied.
    Compared = true;

    std::string Golden = Dir + "/" + E.File;
    std::string GoldenText, FreshText;
    if (!readFile(Golden, GoldenText)) {
      std::fprintf(stderr, "cws-diff: cannot open baseline '%s'\n",
                   Golden.c_str());
      return 2;
    }
    char Digest[32];
    std::snprintf(Digest, sizeof(Digest), "0x%016llx",
                  static_cast<unsigned long long>(obs::fnv1a64(GoldenText)));
    if (E.Digest != Digest) {
      std::fprintf(stderr,
                   "cws-diff: baseline '%s' does not match its MANIFEST "
                   "digest (%s vs %s) — rerun tools/update-baselines.sh\n",
                   Golden.c_str(), Digest, E.Digest.c_str());
      return 2;
    }
    if (readFile(Fresh, FreshText) && FreshText == GoldenText) {
      std::printf("cws-diff: %s: byte-identical to baseline\n",
                  Fresh.c_str());
      continue;
    }
    int Rc = diffOnce(Golden, Fresh, Opts, /*Outcomes=*/false, ReportOut);
    if (Rc == 2)
      return 2;
    Worst = std::max(Worst, Rc);
  }
  if (!Compared) {
    std::fprintf(stderr,
                 "cws-diff: --against-baseline needs --journal and/or "
                 "--timeseries\n");
    return 2;
  }
  return Worst;
}

int main(int Argc, char **Argv) {
  std::string ReportFile, BaselineDir, JournalFile, TimeSeriesFile;
  std::string DigestFile;
  std::string AllowMeta = "shards,cli";
  bool Outcomes = false;
  obs::DiffOptions Opts;
  Flags F;
  F.addString("report", &ReportFile, "write the Markdown diff report here");
  F.addString("allow-meta", &AllowMeta,
              "provenance fields allowed to differ, a comma list of "
              "seed,config_hash,scenario,shards,cli (default: shards,cli)");
  F.addBool("outcomes", &Outcomes,
            "journal mode: compare per-job commit/reject verdicts only (the "
            "cross-reallocation-mode equivalence gate; placements may "
            "differ)");
  F.addBool("allow-repair-saves", &Opts.AllowRepairSaves,
            "with --outcomes: accept the divergence a staged repair is "
            "meant to cause: jobs A committed with a repair on record where "
            "B rejected, and verdicts decided after the first repair "
            "diverged the grids (A = repair run, B = rebuild oracle; A must "
            "never commit fewer jobs than B in total)");
  F.addString("against-baseline", &BaselineDir,
              "compare --journal/--timeseries artifacts against the golden "
              "baselines in this directory");
  F.addString("journal", &JournalFile, "fresh journal for --against-baseline");
  F.addString("timeseries", &TimeSeriesFile,
              "fresh time series for --against-baseline");
  F.addString("digest", &DigestFile,
              "print the fnv1a64 content digest of this file");
  std::vector<std::string> Paths;
  if (!F.parse(Argc, Argv, &Paths)) {
    printUsage();
    return 0;
  }
  if (!parseMetaList(AllowMeta, Opts.Meta))
    return 2;

  if (Opts.AllowRepairSaves && !Outcomes) {
    std::fprintf(stderr,
                 "cws-diff: --allow-repair-saves requires --outcomes\n");
    return 2;
  }

  if (!DigestFile.empty()) {
    if (!Paths.empty() || !BaselineDir.empty()) {
      std::fprintf(stderr, "cws-diff: --digest takes no other operands\n");
      return 2;
    }
    return printDigest(DigestFile);
  }

  std::string Report;
  int Rc;
  if (!BaselineDir.empty()) {
    if (!Paths.empty()) {
      std::fprintf(stderr,
                   "cws-diff: --against-baseline excludes positional "
                   "operands\n");
      return 2;
    }
    Rc = diffAgainstBaseline(BaselineDir, JournalFile, TimeSeriesFile, Opts,
                             Report);
  } else {
    if (Paths.size() != 2) {
      printUsage();
      return 2;
    }
    Rc = diffOnce(Paths[0], Paths[1], Opts, Outcomes, Report);
  }

  if (!ReportFile.empty() && Rc != 2 && !writeTextFile(ReportFile, Report)) {
    std::fprintf(stderr, "cws-diff: cannot write '%s'\n", ReportFile.c_str());
    return 2;
  }
  return Rc;
}

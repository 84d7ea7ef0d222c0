//===-- tools/cws-explain.cpp - Decision journal inspector ----------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// cws-explain: answer "why did the scheduler do that?" from a decision
/// journal written by `cws-sim --journal=run.jsonl`. Usage:
///
///   cws-explain [--job N] [--why-reallocated] [--why-rejected]
///               [--summary] run.jsonl
///   cws-explain --diff-job N a.jsonl b.jsonl
///
/// With no mode flag the per-flow summary is printed. The journal is
/// schema-validated first; structural violations make the tool exit 1,
/// which CI uses as the journal schema gate. `--diff-job` takes two
/// journals and renders job N's causal timeline from both runs plus
/// their first divergence (the cws-diff passthrough).
///
/// Exit codes: 0 ok, 1 validation failure, 2 usage / I/O / parse
/// error — the convention shared by cws-report, cws-sweep and
/// cws-diff.
///
//===----------------------------------------------------------------------===//

#include "obs/Diff.h"
#include "obs/Explain.h"
#include "obs/Journal.h"
#include "support/File.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

using namespace cws;

static void printUsage() {
  std::fprintf(
      stderr,
      "usage: cws-explain [--job N] [--why-reallocated] [--why-rejected]\n"
      "                   [--summary] <journal.jsonl>\n"
      "       cws-explain --diff-job N <a.jsonl> <b.jsonl>\n"
      "\n"
      "  --job N            causal timeline of job N\n"
      "  --why-reallocated  every reallocation, its triggering\n"
      "                     environment change and the broken slot\n"
      "  --why-rejected     every rejection and the decision before it\n"
      "  --summary          per-flow decision counts (default)\n"
      "  --diff-job N       job N's timeline from two journals and their\n"
      "                     first divergence\n"
      "\n"
      "exit codes: 0 ok, 1 validation failure, 2 usage or I/O\n");
}

int main(int Argc, char **Argv) {
  // The journal path is positional, so support/Flags.h (key=value only)
  // does not fit; the four modes make hand parsing short enough.
  std::string Path;
  std::string PathB;
  int64_t JobId = -1;
  int64_t DiffJobId = -1;
  bool WantJob = false;
  bool WantDiffJob = false;
  bool WantReallocated = false;
  bool WantRejected = false;
  bool WantSummary = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h") {
      printUsage();
      return 0;
    }
    if (Arg == "--diff-job") {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "cws-explain: --diff-job needs a job id\n");
        return 2;
      }
      char *End = nullptr;
      DiffJobId = std::strtoll(Argv[++I], &End, 10);
      if (!End || *End != '\0') {
        std::fprintf(stderr, "cws-explain: bad job id '%s'\n", Argv[I]);
        return 2;
      }
      WantDiffJob = true;
    } else if (Arg == "--job") {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "cws-explain: --job needs a job id\n");
        return 2;
      }
      char *End = nullptr;
      JobId = std::strtoll(Argv[++I], &End, 10);
      if (!End || *End != '\0') {
        std::fprintf(stderr, "cws-explain: bad job id '%s'\n", Argv[I]);
        return 2;
      }
      WantJob = true;
    } else if (Arg.rfind("--job=", 0) == 0) {
      char *End = nullptr;
      JobId = std::strtoll(Arg.c_str() + 6, &End, 10);
      if (!End || *End != '\0') {
        std::fprintf(stderr, "cws-explain: bad job id '%s'\n",
                     Arg.c_str() + 6);
        return 2;
      }
      WantJob = true;
    } else if (Arg == "--why-reallocated") {
      WantReallocated = true;
    } else if (Arg == "--why-rejected") {
      WantRejected = true;
    } else if (Arg == "--summary") {
      WantSummary = true;
    } else if (!Arg.empty() && Arg[0] == '-' && Arg != "-") {
      std::fprintf(stderr, "cws-explain: unknown flag '%s'\n", Arg.c_str());
      printUsage();
      return 2;
    } else if (Path.empty()) {
      Path = Arg;
    } else if (WantDiffJob && PathB.empty()) {
      PathB = Arg;
    } else {
      std::fprintf(stderr, "cws-explain: more than one journal file\n");
      return 2;
    }
  }
  if (Path.empty() || (WantDiffJob && PathB.empty())) {
    printUsage();
    return 2;
  }
  if (WantDiffJob && (WantJob || WantReallocated || WantRejected)) {
    std::fprintf(stderr, "cws-explain: --diff-job excludes other modes\n");
    return 2;
  }
  if (!WantJob && !WantDiffJob && !WantReallocated && !WantRejected)
    WantSummary = true;

  std::string Text;
  if (!readFile(Path, Text)) {
    std::fprintf(stderr, "cws-explain: cannot open '%s'\n", Path.c_str());
    return 2;
  }

  obs::ParsedJournal J;
  std::string Error;
  if (!obs::parseJournalJsonl(Text, J, Error)) {
    std::fprintf(stderr, "cws-explain: %s: %s\n", Path.c_str(),
                 Error.c_str());
    return 2;
  }
  if (WantDiffJob) {
    // An inspection across two runs, not a gate: skip the validation
    // pass so a journal from a misbehaving run can still be compared.
    obs::ParsedJournal B;
    if (!readFile(PathB, Text)) {
      std::fprintf(stderr, "cws-explain: cannot open '%s'\n", PathB.c_str());
      return 2;
    }
    if (!obs::parseJournalJsonl(Text, B, Error)) {
      std::fprintf(stderr, "cws-explain: %s: %s\n", PathB.c_str(),
                   Error.c_str());
      return 2;
    }
    std::cout << obs::explainJobDiff(J, B, DiffJobId);
    return 0;
  }
  std::vector<std::string> Violations = obs::validateJournal(J);
  if (!Violations.empty()) {
    std::fprintf(stderr, "cws-explain: %s: journal fails validation:\n",
                 Path.c_str());
    for (const std::string &V : Violations)
      std::fprintf(stderr, "  %s\n", V.c_str());
    return 1;
  }

  bool First = true;
  auto Separate = [&First] {
    if (!First)
      std::cout << "\n";
    First = false;
  };
  if (WantJob) {
    Separate();
    std::cout << obs::explainJob(J, JobId);
  }
  if (WantReallocated) {
    Separate();
    std::cout << obs::explainReallocations(J);
  }
  if (WantRejected) {
    Separate();
    std::cout << obs::explainRejections(J);
  }
  if (WantSummary) {
    Separate();
    std::cout << obs::journalSummary(J);
  }
  return 0;
}

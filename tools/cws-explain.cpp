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
#include "support/Flags.h"

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

using namespace cws;

static void printUsage() {
  std::fprintf(
      stderr,
      "usage: cws-explain [--job N] [--why-reallocated] [--why-rejected]\n"
      "                   [--summary] <journal.jsonl>\n"
      "       cws-explain --diff-job N <a.jsonl> <b.jsonl>\n"
      "\n"
      "exit codes: 0 ok, 1 validation failure, 2 usage or I/O\n");
}

int main(int Argc, char **Argv) {
  // Job ids are >= 0 and -1 names the environment's stream, so an id
  // below -1 marks a mode that was not asked for.
  constexpr int64_t NoJob = INT64_MIN;
  int64_t JobId = NoJob;
  int64_t DiffJobId = NoJob;
  bool WantReallocated = false;
  bool WantRejected = false;
  bool WantSummary = false;
  Flags F;
  F.addInt("job", &JobId,
           "causal timeline of job N (-1: the environment's changes)",
           /*AtLeast=*/-1);
  F.addBool("why-reallocated", &WantReallocated,
            "every reallocation, its triggering environment change and the "
            "broken slot");
  F.addBool("why-rejected", &WantRejected,
            "every rejection and the decision before it");
  F.addBool("summary", &WantSummary, "per-flow decision counts (default)");
  F.addInt("diff-job", &DiffJobId,
           "job N's timeline from two journals and their first divergence",
           /*AtLeast=*/-1);
  std::vector<std::string> Paths;
  if (!F.parse(Argc, Argv, &Paths)) {
    printUsage();
    return 0;
  }
  const bool WantJob = JobId != NoJob;
  const bool WantDiffJob = DiffJobId != NoJob;
  if (Paths.size() > (WantDiffJob ? 2u : 1u)) {
    std::fprintf(stderr, "cws-explain: more than one journal file\n");
    return 2;
  }
  if (Paths.size() < (WantDiffJob ? 2u : 1u)) {
    printUsage();
    return 2;
  }
  if (WantDiffJob && (WantJob || WantReallocated || WantRejected)) {
    std::fprintf(stderr, "cws-explain: --diff-job excludes other modes\n");
    return 2;
  }
  if (!WantJob && !WantDiffJob && !WantReallocated && !WantRejected)
    WantSummary = true;
  const std::string &Path = Paths[0];

  obs::ParsedJournal J;
  if (!readArtifact("cws-explain", Path, J, obs::parseJournalJsonl))
    return 2;
  if (WantDiffJob) {
    // An inspection across two runs, not a gate: skip the validation
    // pass so a journal from a misbehaving run can still be compared.
    obs::ParsedJournal B;
    if (!readArtifact("cws-explain", Paths[1], B, obs::parseJournalJsonl))
      return 2;
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

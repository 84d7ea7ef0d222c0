//===-- obs/Diff.h - Semantic differential run analysis ---------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The structured comparator behind `tools/cws-diff`: semantic diffs
/// over the run artifacts the stack emits, replacing byte-level `cmp`
/// with answers a scheduler engineer can act on.
///
///  - **Journal mode** aligns decision-journal events per job (the
///    global interleaving is an implementation detail; the per-job
///    causal chain is the contract), compares the meta/provenance
///    header field by field under a `MetaPolicy` (shard count and CLI
///    text legitimately differ between compared invocations; seed,
///    scenario and config hash must not, unless a differential-oracle
///    run says otherwise), and localizes the
///    *first* diverging (job, event) with both runs' cause chains —
///    "job 42 diverged at t=310: run A reallocated, run B committed"
///    instead of "byte 48211 differs".
///  - **Series mode** compares telemetry time-series rows one by one:
///    every row's key and value must match exactly (the sampler writes
///    only deterministic counter deltas and sim-time fractions).
///  - **Sweep mode** compares pooled per-scenario indicator statistics
///    field by field; every indicator whose statistics differ is a
///    finding.
///
/// Every comparison is exact: a run reproduces another or it does not.
/// All comparisons are pure functions over the parsed artifact
/// structures, so tests pin verdicts and renderings without running
/// the binary. Exit-code convention of every consumer: 0 identical, 1
/// divergence, 2 usage/IO error.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_OBS_DIFF_H
#define CWS_OBS_DIFF_H

#include "obs/Journal.h"
#include "obs/Report.h"

#include <cstdint>
#include <string>
#include <vector>

namespace cws {
namespace obs {

/// Which provenance fields of two compared artifacts may legitimately
/// differ. The default matches the common CI comparison — one workload
/// run twice: the CLI text (it names per-run paths and flags) may
/// differ, and so may the shard count, which older artifacts record
/// above 1; the identity fields may not.
struct MetaPolicy {
  bool AllowSeed = false;
  bool AllowConfigHash = false;
  bool AllowScenario = false;
  bool AllowShards = true;
  bool AllowCli = true;
  /// Skip meta comparison entirely (`explainJobDiff` compares one
  /// job's causal chain, not the runs' identities).
  bool Off = false;
};

/// Comparison options shared by the modes.
struct DiffOptions {
  MetaPolicy Meta;
  /// Outcome mode only: compare a repair-mode run (A) against its
  /// rebuild oracle (B) up to the divergence staged repair is *meant*
  /// to cause. Staged repair strictly dominates the rebuild — its
  /// stage 3 *is* the rebuild, and stages 1/2 can keep placements of
  /// the stale plan that a from-scratch rebuild at Now can no longer
  /// reproduce — so the first stage-1/2 repair success is the moment
  /// the two runs' grids part ways. Three acceptances follow:
  ///  - **saves**: A=committed / B=rejected with a successful
  ///    `repair.stage` resolution on A's record for that job (any
  ///    stage — later stage-3 rebuilds run on the already-diverged
  ///    grid);
  ///  - **post-repair drift**: both verdicts decisive (committed or
  ///    rejected) and both decided at or after the first stage-1/2
  ///    repair tick — second-order crowding on the diverged grid
  ///    flips verdicts in either direction;
  ///  - everything else — any divergence before the first repair, or
  ///    involving an open/absent verdict — still fails, and accepted
  ///    drift must never leave A committing fewer jobs than B in
  ///    total (the dominance backstop).
  bool AllowRepairSaves = false;
};

/// Comparison outcome.
enum class DiffVerdict : uint8_t {
  /// Semantically equal under the policy.
  Identical,
  Diverged,
};

const char *diffVerdictName(DiffVerdict V);

/// One localized difference ("meta.seed", "job 42", "series x seq 3").
struct DiffFinding {
  std::string Where;
  /// Rendered values from each run ("(absent)" when one side lacks
  /// the record).
  std::string A;
  std::string B;
};

/// Journal mode's first-divergence localization: the earliest (by
/// tick, then job) point where the two runs' causal chains part ways.
struct JournalDivergence {
  bool Present = false;
  int64_t JobId = -1;
  int64_t Tick = 0;
  /// 0-based position in the job's event sequence.
  size_t IndexInJob = 0;
  /// Inline renderings of the diverging event from each run.
  std::string EventA;
  std::string EventB;
  /// The job's cause chain from each run, up to and including the
  /// divergence, with triggers expanded to the environment change
  /// they reference.
  std::string ChainA;
  std::string ChainB;
};

/// Result of one comparison.
struct DiffResult {
  DiffVerdict Verdict = DiffVerdict::Identical;
  /// "journal" | "series" | "sweep".
  std::string Mode;
  std::vector<DiffFinding> MetaFindings;
  std::vector<DiffFinding> Findings;
  /// Total differences found (Findings keeps the first 20).
  size_t TotalFindings = 0;
  /// Journal mode only.
  JournalDivergence First;
  /// One-line human verdict.
  std::string Summary;

  bool identical() const { return Verdict == DiffVerdict::Identical; }
};

/// Journal mode: per-job event alignment + selective meta comparison.
/// Raw `cause` ids are not compared (the cause is structural — the
/// job's previous event); `trigger` references are compared by the
/// content of the environment change they resolve to.
DiffResult diffJournals(const ParsedJournal &A, const ParsedJournal &B,
                        const DiffOptions &Opts = DiffOptions());

/// Outcome mode (`cws-diff --outcomes`): per-job terminal verdict
/// equivalence. Each job's commit/reject verdict must agree across the
/// two journals; placements, costs, event interleaving and repair
/// stages may all differ. This is the cross-reallocation-mode gate —
/// repair and rebuild runs legitimately schedule differently, but must
/// admit and reject the same jobs — except for the saves
/// `Opts.AllowRepairSaves` vouches for. Callers comparing across modes
/// pass `Opts.Meta.AllowConfigHash` (the reallocation mode is part of
/// the canonical config, so the hashes differ by construction).
DiffResult diffJournalOutcomes(const ParsedJournal &A, const ParsedJournal &B,
                               const DiffOptions &Opts = DiffOptions());

/// Series mode: exact row-by-row comparison.
DiffResult diffTimeSeries(const ParsedTimeSeries &A,
                          const ParsedTimeSeries &B,
                          const DiffOptions &Opts = DiffOptions());

/// Whether every pooled statistic of \p A equals \p B's (NaN equals
/// NaN).
bool sameIndicatorStats(const SweepIndicatorStats &A,
                        const SweepIndicatorStats &B);

/// Renders \p S as "n=3 mean=100±5 p50=100 p90=104 p99=105" (NaN as
/// n/a).
std::string renderIndicatorStats(const SweepIndicatorStats &S);

/// Sweep mode: scenario/indicator alignment, then sameIndicatorStats
/// per indicator.
DiffResult diffSweeps(const SweepStore &A, const SweepStore &B);

/// Renders the terse console form (one line per finding, first
/// divergence with both cause chains).
std::string renderDiffText(const DiffResult &R, const std::string &LabelA,
                           const std::string &LabelB);

/// Renders the Markdown diff report (`cws-diff --report`): verdict,
/// meta table, first divergence with cause chains, finding table.
/// Deterministic for fixed inputs.
std::string renderDiffReport(const DiffResult &R, const std::string &LabelA,
                             const std::string &LabelB);

/// Side-by-side causal timelines of one job from two runs plus their
/// first divergence — the `cws-explain --diff-job` passthrough.
std::string explainJobDiff(const ParsedJournal &A, const ParsedJournal &B,
                           int64_t JobId);

} // namespace obs
} // namespace cws

#endif // CWS_OBS_DIFF_H

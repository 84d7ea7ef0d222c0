//===-- obs/Diff.cpp - Semantic differential run analysis -----------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "obs/Diff.h"
#include "obs/Explain.h"
#include "obs/Metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>

using namespace cws;
using namespace cws::obs;

const char *cws::obs::diffVerdictName(DiffVerdict V) {
  switch (V) {
  case DiffVerdict::Identical:
    return "identical";
  case DiffVerdict::Diverged:
    return "diverged";
  }
  return "?";
}

namespace {

/// Findings accumulator: keeps the first MaxFindings, counts them all.
struct Findings {
  static constexpr size_t MaxFindings = 20;
  std::vector<DiffFinding> Items;
  size_t Total = 0;

  void add(std::string Where, std::string A, std::string B) {
    ++Total;
    if (Items.size() < MaxFindings)
      Items.push_back({std::move(Where), std::move(A), std::move(B)});
  }
};

const char *Absent = "(absent)";

/// Compares one provenance field under the policy.
void metaField(Findings &F, const char *Name, bool Allowed,
               const std::string &A, const std::string &B) {
  if (!Allowed && A != B)
    F.add(std::string("meta.") + Name, A, B);
}

void compareMeta(Findings &F, const RunProvenance &A, const RunProvenance &B,
                 const MetaPolicy &P) {
  if (P.Off)
    return;
  // An unstamped side has nothing to compare field-by-field; stamp
  // presence itself only matters when exactly one side carries one.
  if (!A.Stamped && !B.Stamped)
    return;
  if (A.Stamped != B.Stamped) {
    F.add("meta.provenance", A.Stamped ? "stamped" : Absent,
          B.Stamped ? "stamped" : Absent);
    return;
  }
  metaField(F, "seed", P.AllowSeed, std::to_string(A.Seed),
            std::to_string(B.Seed));
  metaField(F, "config_hash", P.AllowConfigHash, A.ConfigHash, B.ConfigHash);
  metaField(F, "scenario", P.AllowScenario, A.ScenarioId, B.ScenarioId);
  // A side that recorded no shard count (0) is compatible with any.
  if (A.Shards > 0 && B.Shards > 0)
    metaField(F, "shards", P.AllowShards, std::to_string(A.Shards),
              std::to_string(B.Shards));
  metaField(F, "cli", P.AllowCli, A.Cli, B.Cli);
}

//===----------------------------------------------------------------------===//
// Journal mode
//===----------------------------------------------------------------------===//

/// Rendered content of the environment change a trigger resolves to,
/// for structural (id-free) comparison across runs.
std::string triggerContent(const ParsedJournal &J,
                           const ParsedJournalEvent &E) {
  if (E.Trigger == 0)
    return std::string();
  const ParsedJournalEvent *T = J.byId(E.Trigger);
  if (!T)
    return "(dropped)";
  std::string Out = "t=" + std::to_string(T->At) + " " + T->Kind;
  if (!T->Detail.empty())
    Out += " [" + T->Detail + "]";
  for (const auto &A : T->Args)
    Out += " " + A.first + "=" + std::to_string(A.second);
  return Out;
}

/// Semantic equality of two events from different runs. Raw ids and
/// `cause` links are ordinal bookkeeping (the cause is always the
/// job's previous event, which the per-job walk already aligned);
/// triggers compare by the content of the env.change they reference.
bool sameEvent(const ParsedJournal &JA, const ParsedJournalEvent &A,
               const ParsedJournal &JB, const ParsedJournalEvent &B) {
  return A.Kind == B.Kind && A.At == B.At && A.JobId == B.JobId &&
         A.FlowId == B.FlowId && A.Detail == B.Detail && A.Args == B.Args &&
         triggerContent(JA, A) == triggerContent(JB, B);
}

/// The job's cause chain up to and including event index \p Upto, with
/// resolvable triggers expanded. Long prefixes are elided to the last
/// `Keep` entries.
std::string renderChain(const ParsedJournal &J,
                        const std::vector<const ParsedJournalEvent *> &Chain,
                        size_t Upto) {
  constexpr size_t Keep = 8;
  std::string Out;
  size_t Begin = 0;
  if (Upto + 1 > Keep) {
    Begin = Upto + 1 - Keep;
    Out += "  ... " + std::to_string(Begin) + " earlier event(s)\n";
  }
  for (size_t I = Begin; I <= Upto && I < Chain.size(); ++I) {
    Out += "  " + renderJournalEventInline(*Chain[I]) + "\n";
    if (Chain[I]->Trigger != 0) {
      std::string T = triggerContent(J, *Chain[I]);
      if (!T.empty())
        Out += "      trigger: " + T + "\n";
    }
  }
  return Out;
}

using JobChains =
    std::map<int64_t, std::vector<const ParsedJournalEvent *>>;

JobChains chainsOf(const ParsedJournal &J) {
  JobChains Out;
  for (const ParsedJournalEvent &E : J.Events)
    Out[E.JobId].push_back(&E);
  return Out;
}

const char *jobLabel(int64_t JobId) {
  // -1 groups the job-agnostic stream (env.change, notes).
  return JobId < 0 ? "environment" : "job";
}

} // namespace

DiffResult cws::obs::diffJournals(const ParsedJournal &A,
                                  const ParsedJournal &B,
                                  const DiffOptions &Opts) {
  DiffResult R;
  R.Mode = "journal";
  Findings Meta;
  compareMeta(Meta, A.Prov, B.Prov, Opts.Meta);
  R.MetaFindings = std::move(Meta.Items);

  Findings F;
  JobChains CA = chainsOf(A);
  JobChains CB = chainsOf(B);

  // First-divergence candidate: the diverging event with the smallest
  // (tick, job, index) triple across all per-job walks.
  struct Candidate {
    bool Present = false;
    int64_t Tick = 0;
    int64_t JobId = -1;
    size_t Index = 0;
    const ParsedJournalEvent *EvA = nullptr;
    const ParsedJournalEvent *EvB = nullptr;
  } Best;
  auto Consider = [&Best](int64_t Tick, int64_t JobId, size_t Index,
                          const ParsedJournalEvent *EvA,
                          const ParsedJournalEvent *EvB) {
    if (Best.Present && std::tie(Best.Tick, Best.JobId, Best.Index) <=
                            std::tie(Tick, JobId, Index))
      return;
    Best = {true, Tick, JobId, Index, EvA, EvB};
  };

  std::set<int64_t> Jobs;
  for (const auto &[Job, Chain] : CA)
    Jobs.insert(Job);
  for (const auto &[Job, Chain] : CB)
    Jobs.insert(Job);
  for (int64_t Job : Jobs) {
    auto IA = CA.find(Job);
    auto IB = CB.find(Job);
    static const std::vector<const ParsedJournalEvent *> None;
    const auto &EA = IA == CA.end() ? None : IA->second;
    const auto &EB = IB == CB.end() ? None : IB->second;
    size_t N = std::min(EA.size(), EB.size());
    size_t Div = N;
    for (size_t I = 0; I < N; ++I)
      if (!sameEvent(A, *EA[I], B, *EB[I])) {
        Div = I;
        break;
      }
    if (Div == N && EA.size() == EB.size())
      continue; // This chain agrees end to end.
    const ParsedJournalEvent *EvA = Div < EA.size() ? EA[Div] : nullptr;
    const ParsedJournalEvent *EvB = Div < EB.size() ? EB[Div] : nullptr;
    int64_t Tick = EvA && EvB ? std::min(EvA->At, EvB->At)
                              : (EvA ? EvA->At : EvB->At);
    Consider(Tick, Job, Div, EvA, EvB);
    std::string Where = std::string(jobLabel(Job)) +
                        (Job < 0 ? std::string()
                                 : " " + std::to_string(Job)) +
                        " event " + std::to_string(Div + 1) + "/" +
                        std::to_string(std::max(EA.size(), EB.size()));
    F.add(std::move(Where),
          EvA ? renderJournalEventInline(*EvA) : Absent,
          EvB ? renderJournalEventInline(*EvB) : Absent);
  }

  // Ring-loss accounting: identical surviving chains can still hide
  // different histories when the rings dropped different amounts.
  if (A.Dropped != B.Dropped)
    F.add("meta.dropped", std::to_string(A.Dropped),
          std::to_string(B.Dropped));
  else if (A.Recorded != B.Recorded)
    F.add("meta.recorded", std::to_string(A.Recorded),
          std::to_string(B.Recorded));

  if (Best.Present) {
    R.First.Present = true;
    R.First.JobId = Best.JobId;
    R.First.Tick = Best.Tick;
    R.First.IndexInJob = Best.Index;
    R.First.EventA =
        Best.EvA ? renderJournalEventInline(*Best.EvA) : Absent;
    R.First.EventB =
        Best.EvB ? renderJournalEventInline(*Best.EvB) : Absent;
    auto ChainFor = [&](const ParsedJournal &J, const JobChains &C,
                        const ParsedJournalEvent *Ev) {
      auto I = C.find(Best.JobId);
      if (I == C.end() || I->second.empty())
        return std::string("  (no events)\n");
      size_t Upto = Ev ? Best.Index : I->second.size() - 1;
      if (Upto >= I->second.size())
        Upto = I->second.size() - 1;
      return renderChain(J, I->second, Upto);
    };
    R.First.ChainA = ChainFor(A, CA, Best.EvA);
    R.First.ChainB = ChainFor(B, CB, Best.EvB);
  }

  R.Findings = std::move(F.Items);
  R.TotalFindings = F.Total + R.MetaFindings.size();
  R.Verdict = R.TotalFindings == 0 ? DiffVerdict::Identical
                                   : DiffVerdict::Diverged;
  if (R.identical()) {
    R.Summary = "journals identical: " + std::to_string(A.Events.size()) +
                " events, " + std::to_string(Jobs.size()) +
                " causal chain(s) agree";
  } else if (R.First.Present) {
    R.Summary = std::string(jobLabel(R.First.JobId)) +
                (R.First.JobId < 0 ? std::string()
                                   : " " + std::to_string(R.First.JobId)) +
                " diverged at t=" + std::to_string(R.First.Tick) + ": A " +
                R.First.EventA + " vs B " + R.First.EventB;
  } else {
    R.Summary = "journals diverge in meta only (" +
                std::to_string(R.TotalFindings) + " finding(s))";
  }
  return R;
}

DiffResult cws::obs::diffJournalOutcomes(const ParsedJournal &A,
                                         const ParsedJournal &B,
                                         const DiffOptions &Opts) {
  DiffResult R;
  R.Mode = "journal-outcomes";
  Findings Meta;
  compareMeta(Meta, A.Prov, B.Prov, Opts.Meta);
  R.MetaFindings = std::move(Meta.Items);

  // Terminal verdict of every job, plus the tick of the event that
  // decided it (JobVerdict). Jobs run A's journal vouches for: a
  // successful repair resolution explains why A could commit where the
  // rebuild oracle rejected. The first *stage-1/2* success is also the
  // moment the two runs' grids can part ways — a repair keeps
  // placements of the stale plan that the rebuild run replaces with
  // fresh ones — so decisive verdicts after that tick may legitimately
  // drift in either direction, and strict equivalence is only
  // enforceable before it.
  const JournalFold FA = foldJournal(A);
  const JournalFold FB = foldJournal(B);
  const int64_t FirstRepairTick = Opts.AllowRepairSaves
                                      ? FA.FirstStage12Repair
                                      : std::numeric_limits<int64_t>::max();

  Findings F;
  std::set<int64_t> Jobs;
  for (const JournalFold *Fold : {&FA, &FB})
    for (const auto &[Job, R] : Fold->Jobs)
      if (R.Verdict != JobVerdict::None)
        Jobs.insert(Job);
  size_t Agreed = 0;
  size_t Saves = 0;
  size_t Drift = 0;
  size_t CommittedA = 0;
  size_t CommittedB = 0;
  auto VerdictOf = [](const JournalFold &Fold, int64_t Job) {
    auto It = Fold.Jobs.find(Job);
    return It == Fold.Jobs.end() ? JobRecord() : It->second;
  };
  auto Name = [](JobVerdict V) {
    static const char *const Names[] = {Absent, "open", "committed",
                                        "rejected"};
    return Names[static_cast<size_t>(V)];
  };
  auto Decisive = [](JobVerdict V) {
    return V == JobVerdict::Committed || V == JobVerdict::Rejected;
  };
  for (int64_t Job : Jobs) {
    const JobRecord RA = VerdictOf(FA, Job);
    const JobRecord RB = VerdictOf(FB, Job);
    CommittedA += RA.Verdict == JobVerdict::Committed;
    CommittedB += RB.Verdict == JobVerdict::Committed;
    if (RA.Verdict == RB.Verdict) {
      ++Agreed;
      continue;
    }
    if (Opts.AllowRepairSaves && RA.Verdict == JobVerdict::Committed &&
        RB.Verdict == JobVerdict::Rejected && RA.RepairedBy != 0) {
      ++Saves;
      continue;
    }
    // Post-repair drift: both verdicts decisive, both decided after
    // the grids could have diverged. Open/absent mismatches and any
    // divergence before the first repair are still defects.
    if (Opts.AllowRepairSaves && Decisive(RA.Verdict) &&
        Decisive(RB.Verdict) && RA.DecidedAt >= FirstRepairTick &&
        RB.DecidedAt >= FirstRepairTick) {
      ++Drift;
      continue;
    }
    F.add("job " + std::to_string(Job) + " outcome", Name(RA.Verdict),
          Name(RB.Verdict));
  }
  // The dominance backstop on accepted drift: repair exists to save
  // jobs, so the drift it causes must never leave the repair run
  // committing fewer jobs than its rebuild oracle.
  if (Drift && CommittedA < CommittedB)
    F.add("committed jobs total", std::to_string(CommittedA),
          std::to_string(CommittedB));

  R.Findings = std::move(F.Items);
  R.TotalFindings = F.Total + R.MetaFindings.size();
  R.Verdict = R.TotalFindings == 0 ? DiffVerdict::Identical
                                   : DiffVerdict::Diverged;
  std::string SaveNote;
  if (Saves)
    SaveNote += ", " + std::to_string(Saves) + " repair save(s) accepted";
  if (Drift)
    SaveNote += ", " + std::to_string(Drift) + " post-repair drift(s) accepted";
  if (R.identical())
    R.Summary = "outcomes equivalent: " + std::to_string(Agreed) +
                " job verdict(s) agree" + SaveNote;
  else
    R.Summary = "outcomes diverge: " + std::to_string(F.Total) +
                " of " + std::to_string(Jobs.size()) +
                " job verdict(s) differ" + SaveNote;
  return R;
}

//===----------------------------------------------------------------------===//
// Series mode
//===----------------------------------------------------------------------===//

namespace {

std::string rowKey(const TimeSeriesRow &R) {
  std::string Out = "seq " + std::to_string(R.Seq) + " t=" +
                    std::to_string(R.At) + " " + R.Series;
  if (R.Node >= 0)
    Out += " node " + std::to_string(R.Node);
  if (!R.Flow.empty())
    Out += " flow " + R.Flow;
  return Out;
}

std::string rowText(const TimeSeriesRow &R) {
  return rowKey(R) + " (" + R.Reason + ") = " + renderNumber(R.Value);
}

} // namespace

DiffResult cws::obs::diffTimeSeries(const ParsedTimeSeries &A,
                                    const ParsedTimeSeries &B,
                                    const DiffOptions &Opts) {
  DiffResult R;
  R.Mode = "series";
  Findings Meta;
  compareMeta(Meta, A.Prov, B.Prov, Opts.Meta);
  R.MetaFindings = std::move(Meta.Items);

  Findings F;
  for (size_t I = 0; I < std::max(A.Rows.size(), B.Rows.size()); ++I) {
    // Surplus rows past the common prefix.
    if (I >= B.Rows.size()) {
      F.add(rowKey(A.Rows[I]), rowText(A.Rows[I]), Absent);
      continue;
    }
    if (I >= A.Rows.size()) {
      F.add(rowKey(B.Rows[I]), Absent, rowText(B.Rows[I]));
      continue;
    }
    const TimeSeriesRow &RA = A.Rows[I];
    const TimeSeriesRow &RB = B.Rows[I];
    if (RA.Seq != RB.Seq || RA.At != RB.At || RA.Reason != RB.Reason ||
        RA.Series != RB.Series || RA.Node != RB.Node || RA.Flow != RB.Flow) {
      F.add("row alignment", rowText(RA), rowText(RB));
      continue;
    }
    if (RA.Value != RB.Value)
      F.add(rowKey(RA), renderNumber(RA.Value), renderNumber(RB.Value));
  }

  R.Findings = std::move(F.Items);
  R.TotalFindings = F.Total + R.MetaFindings.size();
  R.Verdict = R.TotalFindings == 0 ? DiffVerdict::Identical
                                   : DiffVerdict::Diverged;
  if (R.identical()) {
    R.Summary = "series identical: " + std::to_string(A.Rows.size()) +
                " rows agree";
  } else {
    R.Summary = "series diverge: " + std::to_string(R.TotalFindings) +
                " finding(s)";
    if (!R.Findings.empty())
      R.Summary += ", first at " + R.Findings.front().Where;
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Sweep mode
//===----------------------------------------------------------------------===//

bool cws::obs::sameIndicatorStats(const SweepIndicatorStats &A,
                                  const SweepIndicatorStats &B) {
  // n/a round-trips as NaN, and an n/a statistic equals only n/a.
  auto Same = [](double X, double Y) {
    return X == Y || (std::isnan(X) && std::isnan(Y));
  };
  return A.N == B.N && Same(A.Mean, B.Mean) && Same(A.Stddev, B.Stddev) &&
         Same(A.Ci95, B.Ci95) && Same(A.P50, B.P50) && Same(A.P90, B.P90) &&
         Same(A.P99, B.P99) && Same(A.Min, B.Min) && Same(A.Max, B.Max);
}

std::string cws::obs::renderIndicatorStats(const SweepIndicatorStats &S) {
  auto Num = [](double X) {
    return std::isnan(X) ? std::string("n/a") : renderNumber(X);
  };
  return "n=" + std::to_string(S.N) + " mean=" + Num(S.Mean) + "±" +
         Num(S.Ci95) + " p50=" + Num(S.P50) + " p90=" + Num(S.P90) +
         " p99=" + Num(S.P99);
}

DiffResult cws::obs::diffSweeps(const SweepStore &A, const SweepStore &B) {
  DiffResult R;
  R.Mode = "sweep";
  Findings F;
  if (A.Seeds != B.Seeds)
    F.add("sweep.seeds", std::to_string(A.Seeds), std::to_string(B.Seeds));
  if (A.Runs != B.Runs)
    F.add("sweep.runs", std::to_string(A.Runs), std::to_string(B.Runs));

  std::map<std::string, const SweepScenario *> SB;
  for (const SweepScenario &S : B.Scenarios)
    SB[S.Id] = &S;
  std::set<std::string> SeenB;
  for (const SweepScenario &SA : A.Scenarios) {
    auto I = SB.find(SA.Id);
    if (I == SB.end()) {
      F.add("scenario " + SA.Id, "present", Absent);
      continue;
    }
    SeenB.insert(SA.Id);
    const SweepScenario &SBS = *I->second;
    for (const auto &[Name, StA] : SA.Indicators) {
      const SweepIndicatorStats *StB = SBS.indicator(Name);
      std::string Where = "scenario " + SA.Id + " " + Name;
      if (!StB)
        F.add(Where, "present", Absent);
      else if (!sameIndicatorStats(StA, *StB))
        F.add(Where, renderIndicatorStats(StA), renderIndicatorStats(*StB));
    }
    // Indicators only the B side has.
    for (const auto &[Name, StB] : SBS.Indicators)
      if (!SA.indicator(Name))
        F.add("scenario " + SA.Id + " " + Name, Absent, "present");
  }
  for (const SweepScenario &S : B.Scenarios)
    if (!SeenB.count(S.Id))
      F.add("scenario " + S.Id, Absent, "present");

  R.Findings = std::move(F.Items);
  R.TotalFindings = F.Total;
  R.Verdict = R.TotalFindings == 0 ? DiffVerdict::Identical
                                   : DiffVerdict::Diverged;
  if (R.identical()) {
    R.Summary = "sweeps identical: " + std::to_string(A.Scenarios.size()) +
                " scenario(s) agree on every pooled statistic";
  } else {
    R.Summary = "sweep regression: " + std::to_string(R.TotalFindings) +
                " finding(s)";
    if (!R.Findings.empty())
      R.Summary += ", first at " + R.Findings.front().Where;
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

static void renderFirstDivergence(std::string &Out, const DiffResult &R,
                                  const std::string &LabelA,
                                  const std::string &LabelB, bool Markdown) {
  if (!R.First.Present)
    return;
  const JournalDivergence &D = R.First;
  std::string Head = std::string(D.JobId < 0 ? "environment stream"
                                             : "job " +
                                                   std::to_string(D.JobId)) +
                     " diverged at t=" + std::to_string(D.Tick) +
                     " (event " + std::to_string(D.IndexInJob + 1) +
                     " of its chain)";
  if (Markdown) {
    Out += "## First divergence\n\n" + Head + ":\n\n";
    Out += "- A: `" + D.EventA + "`\n";
    Out += "- B: `" + D.EventB + "`\n\n";
    Out += "Cause chain in A (" + LabelA + "):\n\n```\n" + D.ChainA +
           "```\n\nCause chain in B (" + LabelB + "):\n\n```\n" + D.ChainB +
           "```\n\n";
  } else {
    Out += "first divergence: " + Head + "\n";
    Out += "  A: " + D.EventA + "\n";
    Out += "  B: " + D.EventB + "\n";
    Out += "cause chain in A (" + LabelA + "):\n" + D.ChainA;
    Out += "cause chain in B (" + LabelB + "):\n" + D.ChainB;
  }
}

std::string cws::obs::renderDiffText(const DiffResult &R,
                                     const std::string &LabelA,
                                     const std::string &LabelB) {
  std::string Out = "cws-diff [" + R.Mode + "] A=" + LabelA +
                    " B=" + LabelB + "\n";
  Out += "verdict: " + std::string(diffVerdictName(R.Verdict)) + " — " +
         R.Summary + "\n";
  for (const DiffFinding &F : R.MetaFindings)
    Out += "  " + F.Where + ": A=" + F.A + " B=" + F.B + "\n";
  renderFirstDivergence(Out, R, LabelA, LabelB, false);
  for (const DiffFinding &F : R.Findings)
    Out += "  " + F.Where + ": A=" + F.A + " B=" + F.B + "\n";
  if (R.TotalFindings >
      R.Findings.size() + R.MetaFindings.size())
    Out += "  ... " +
           std::to_string(R.TotalFindings - R.Findings.size() -
                          R.MetaFindings.size()) +
           " more finding(s) not shown\n";
  return Out;
}

std::string cws::obs::renderDiffReport(const DiffResult &R,
                                       const std::string &LabelA,
                                       const std::string &LabelB) {
  std::string Out = "# Differential run analysis (" + R.Mode + ")\n\n";
  Out += "- run A: `" + LabelA + "`\n";
  Out += "- run B: `" + LabelB + "`\n";
  Out += "- verdict: **" + std::string(diffVerdictName(R.Verdict)) +
         "** — " + R.Summary + "\n\n";
  if (!R.MetaFindings.empty()) {
    Out += "## Meta / provenance differences\n\n";
    Out += "| field | A | B |\n|---|---|---|\n";
    for (const DiffFinding &F : R.MetaFindings)
      Out += "| " + F.Where + " | `" + F.A + "` | `" + F.B + "` |\n";
    Out += "\n";
  }
  renderFirstDivergence(Out, R, LabelA, LabelB, true);
  if (!R.Findings.empty()) {
    Out += "## Findings\n\n";
    Out += "| where | A | B |\n|---|---|---|\n";
    for (const DiffFinding &F : R.Findings)
      Out += "| " + F.Where + " | `" + F.A + "` | `" + F.B + "` |\n";
    size_t Shown = R.Findings.size() + R.MetaFindings.size();
    if (R.TotalFindings > Shown)
      Out += "\n... " + std::to_string(R.TotalFindings - Shown) +
             " more finding(s) not shown.\n";
    Out += "\n";
  }
  return Out;
}

std::string cws::obs::explainJobDiff(const ParsedJournal &A,
                                     const ParsedJournal &B, int64_t JobId) {
  DiffOptions Opts;
  Opts.Meta.Off = true; // Only this job's chain matters here.
  DiffResult R = diffJournals(A, B, Opts);
  std::string Out = "--- run A ---\n" + explainJob(A, JobId);
  Out += "--- run B ---\n" + explainJob(B, JobId);
  // Localize within the requested job even when an earlier job holds
  // the run's global first divergence.
  JobChains CA = chainsOf(A), CB = chainsOf(B);
  auto IA = CA.find(JobId);
  auto IB = CB.find(JobId);
  static const std::vector<const ParsedJournalEvent *> None;
  const auto &EA = IA == CA.end() ? None : IA->second;
  const auto &EB = IB == CB.end() ? None : IB->second;
  size_t N = std::min(EA.size(), EB.size());
  size_t Div = N;
  for (size_t I = 0; I < N; ++I)
    if (!sameEvent(A, *EA[I], B, *EB[I])) {
      Div = I;
      break;
    }
  if (Div == N && EA.size() == EB.size()) {
    Out += "--- job " + std::to_string(JobId) +
           ": causal chains agree (" + std::to_string(EA.size()) +
           " event(s))";
    if (!R.identical())
      Out += "; the runs first diverge elsewhere: " + R.Summary;
    Out += "\n";
    return Out;
  }
  const ParsedJournalEvent *EvA = Div < EA.size() ? EA[Div] : nullptr;
  const ParsedJournalEvent *EvB = Div < EB.size() ? EB[Div] : nullptr;
  int64_t Tick = EvA && EvB ? std::min(EvA->At, EvB->At)
                            : (EvA ? EvA->At : EvB ? EvB->At : 0);
  Out += "--- job " + std::to_string(JobId) + " diverges at t=" +
         std::to_string(Tick) + " (event " + std::to_string(Div + 1) +
         " of its chain)\n";
  Out += "  A: " + (EvA ? renderJournalEventInline(*EvA)
                        : std::string(Absent)) + "\n";
  Out += "  B: " + (EvB ? renderJournalEventInline(*EvB)
                        : std::string(Absent)) + "\n";
  return Out;
}

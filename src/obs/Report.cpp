//===-- obs/Report.cpp - Run reports and SLO evaluation -------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "obs/Report.h"
#include "obs/Metrics.h"
#include "support/Stats.h"
#include "support/Text.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <set>

using namespace cws;
using namespace cws::obs;

//===----------------------------------------------------------------------===//
// Parsing
//===----------------------------------------------------------------------===//

static const char TimeSeriesHeader[] = "seq,tick,reason,series,node,flow,value";

bool cws::obs::parseTimeSeriesCsv(const std::string &Text,
                                  ParsedTimeSeries &Out,
                                  std::string &Error) {
  Out = ParsedTimeSeries{};
  LineReader In(Text);
  bool SawHeader = false;
  while (In.next()) {
    const std::string &Line = In.line();
    if (Line.empty())
      continue;
    if (!SawHeader) {
      // Comment lines may precede the header; the provenance stamp is
      // one of them.
      if (Line[0] == '#') {
        parseProvenanceCsvComment(Line, Out.Prov);
        continue;
      }
      if (Line != TimeSeriesHeader) {
        Error = In.error("expected header '" + std::string(TimeSeriesHeader) +
                         "'");
        return false;
      }
      SawHeader = true;
      continue;
    }
    // Values never contain commas (series/reason names are literals,
    // flow labels are strategy names), so a plain split suffices.
    std::vector<std::string> Fields = splitFields(Line, ",");
    if (Fields.size() != 7) {
      Error = In.error("expected 7 fields, got " +
                       std::to_string(Fields.size()));
      return false;
    }
    TimeSeriesRow R;
    auto Bad = [&](const char *What, const std::string &Field) {
      Error = In.error(std::string("bad ") + What + " '" + Field + "'");
      return false;
    };
    if (!parseUint(Fields[0], R.Seq))
      return Bad("seq", Fields[0]);
    if (!parseInt(Fields[1], R.At))
      return Bad("tick", Fields[1]);
    R.Reason = Fields[2];
    R.Series = Fields[3];
    if (!Fields[4].empty() && !parseInt(Fields[4], R.Node))
      return Bad("node", Fields[4]);
    R.Flow = Fields[5];
    if (!parseReal(Fields[6], R.Value))
      return Bad("value", Fields[6]);
    // The ring keeps the newest frames and numbers them from 0 at
    // enable, so the first row's seq counts the frames it dropped.
    if (Out.Rows.empty())
      Out.Dropped = R.Seq;
    Out.Rows.push_back(std::move(R));
  }
  if (!SawHeader) {
    Error = "empty file";
    return false;
  }
  return true;
}

bool cws::obs::parseSloFile(const std::string &Text,
                            std::vector<SloRule> &Out, std::string &Error) {
  Out.clear();
  LineReader In(Text);
  while (In.next()) {
    std::string Line = In.line();
    if (size_t Hash = Line.find('#'); Hash != std::string::npos)
      Line = Line.substr(0, Hash);
    // Trim.
    size_t B = Line.find_first_not_of(" \t\r");
    if (B == std::string::npos)
      continue;
    size_t E = Line.find_last_not_of(" \t\r");
    Line = Line.substr(B, E - B + 1);
    auto Fail = [&](const std::string &Why) {
      Error = In.error(Why);
      return false;
    };
    SloRule R;
    size_t Op = Line.find("<=");
    if (Op != std::string::npos) {
      R.IsUpper = true;
    } else {
      Op = Line.find(">=");
      if (Op == std::string::npos)
        return Fail("expected 'indicator <= bound' or 'indicator >= bound'");
      R.IsUpper = false;
    }
    std::string Name = Line.substr(0, Op);
    if (size_t NE = Name.find_last_not_of(" \t"); NE != std::string::npos)
      Name = Name.substr(0, NE + 1);
    if (Name.empty())
      return Fail("missing indicator name");
    // Sweep grammar: a `.stat` suffix selects the pooled statistic the
    // rule gates on ("deadline_miss_rate.p90"). Any other dotted suffix
    // stays part of the indicator name — profile indicators like
    // `phase.chain.dp.count` are dotted all the way through, and an
    // indicator nothing computes fails closed at evaluation anyway.
    if (size_t Dot = Name.rfind('.'); Dot != std::string::npos) {
      static const char *Stats[] = {"mean", "ci95", "p50", "p90",
                                    "p99",  "min",  "max"};
      std::string Suffix = Name.substr(Dot + 1);
      bool KnownStat = false;
      for (const char *S : Stats)
        KnownStat = KnownStat || Suffix == S;
      if (KnownStat) {
        R.Stat = Suffix;
        Name = Name.substr(0, Dot);
        if (Name.empty())
          return Fail("missing indicator name");
      }
    }
    R.Indicator = Name;
    // The bound, then an optional `across seeds` trailer: the rule
    // explicitly scopes to sweep evaluation (and fails closed in
    // single-run evaluation).
    std::vector<std::string> Words =
        splitFields(Line.substr(Op + 2), " \t", /*SkipEmpty=*/true);
    if (Words.empty() || !parseReal(Words[0], R.Bound))
      return Fail("bad bound '" + (Words.empty() ? "" : Words[0]) + "'");
    if (Words.size() == 3 && Words[1] == "across" && Words[2] == "seeds") {
      R.AcrossSeeds = true;
    } else if (Words.size() > 1) {
      std::string Trailer = Words[1];
      for (size_t I = 2; I < Words.size(); ++I)
        Trailer += " " + Words[I];
      return Fail("trailing junk '" + Trailer + "'");
    }
    Out.push_back(std::move(R));
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Indicators
//===----------------------------------------------------------------------===//

/// Why a series that lost its first frames has no utilization figures.
static std::string droppedFramesReason(const ParsedTimeSeries &Ts) {
  return "the time-series ring dropped " + std::to_string(Ts.Dropped) +
         " frames";
}

/// The indicators of computeIndicators, read from the journal fold
/// \p F of a journal that dropped \p Dropped events, joined with \p Ts;
/// \p Why receives the ones this run leaves out, with the reason.
static std::map<std::string, double>
indicatorsOf(const JournalFold &F, uint64_t Dropped, const ParsedTimeSeries &Ts,
             std::map<std::string, std::string> &Why) {
  std::map<std::string, double> Ind;
  auto Count = [&F](JournalKind K) {
    return static_cast<double>(F.Totals[K]);
  };
  double Submitted = Count(JournalKind::Arrival);
  double Committed = Count(JournalKind::Commit);
  double Rejected = Count(JournalKind::Reject);
  double Reallocations = Count(JournalKind::Reallocate);
  double Missed = 0, Judged = 0;
  double CostSum = 0, CfSum = 0, CostN = 0, CfN = 0;
  for (const auto &[JobId, R] : F.Jobs) {
    if (R.Commits > 0 && R.Deadline) {
      ++Judged;
      if (R.Completion > *R.Deadline)
        ++Missed;
    }
    if (R.Cost) {
      CostSum += static_cast<double>(*R.Cost);
      ++CostN;
    }
    if (R.Cf) {
      CfSum += static_cast<double>(*R.Cf);
      ++CfN;
    }
  }
  Ind["jobs_submitted"] = Submitted;
  Ind["jobs_committed"] = Committed;
  Ind["jobs_rejected"] = Rejected;
  Ind["commit_rate"] = Submitted > 0 ? Committed / Submitted : 0.0;
  Ind["reject_rate"] = Submitted > 0 ? Rejected / Submitted : 0.0;
  // With no committed job carrying a deadline the rate is undefined:
  // leaving it out (instead of a reassuring 0.0) makes an SLO rule on
  // it fail closed, and the report renders n/a.
  if (Judged > 0)
    Ind["deadline_miss_rate"] = Missed / Judged;
  else
    Why["deadline_miss_rate"] = "no committed job has a deadline";
  Ind["reallocations"] = Reallocations;
  Ind["invalidations"] = Count(JournalKind::Invalidate);
  Ind["env_changes"] = Count(JournalKind::EnvChange);
  Ind["reallocations_per_commit"] =
      Reallocations / (Committed > 0 ? Committed : 1.0);
  // Staged-repair outcome mix (repair-mode journals only; a
  // rebuild-mode run has no repair.stage events and the indicators stay
  // absent, so SLO rules on them fail closed). The share is over the
  // reallocations that delivered a strategy at all — a failed one is a
  // job even the stage-3 rebuild could not fix, so no mode resolves it
  // (same denominator as bench/reg_realloc_repair).
  double Stage12 = static_cast<double>(F.RepairedShift + F.RepairedDp);
  double RepairResolved = Stage12 + static_cast<double>(F.Rebuilt);
  if (RepairResolved + static_cast<double>(F.RepairFailed) > 0) {
    Ind["realloc_repaired_shift"] = static_cast<double>(F.RepairedShift);
    Ind["realloc_repaired_dp"] = static_cast<double>(F.RepairedDp);
    Ind["realloc_rebuilt"] = static_cast<double>(F.Rebuilt);
    Ind["realloc_failed"] = static_cast<double>(F.RepairFailed);
    if (RepairResolved > 0)
      Ind["repair_stage12_share"] = Stage12 / RepairResolved;
    else
      Why["repair_stage12_share"] = "no repair stage resolved a reallocation";
  } else {
    for (const char *Name :
         {"realloc_repaired_shift", "realloc_repaired_dp", "realloc_rebuilt",
          "realloc_failed", "repair_stage12_share"})
      Why[Name] = "no repair stage on record (a rebuild-mode journal)";
  }
  // Cost / cost-function means over committed schedules: the sweep's
  // cost-vs-time QoS axes. Undefined (absent) with no commits, same
  // convention as deadline_miss_rate.
  if (CostN > 0)
    Ind["mean_commit_cost"] = CostSum / CostN;
  else
    Why["mean_commit_cost"] = "no commit records a cost";
  if (CfN > 0)
    Ind["mean_commit_cf"] = CfSum / CfN;
  else
    Why["mean_commit_cf"] = "no commit records a cost-function value";
  // A journal whose ring dropped events lost the head of the run, so
  // counts and rates over the events it kept would describe another
  // run. Its indicators stay undefined: SLO rules on them fail closed.
  if (Dropped > 0) {
    const std::string Lost =
        "the journal ring dropped " + std::to_string(Dropped) + " events";
    for (const auto &Entry : Ind)
      Why[Entry.first] = Lost;
    for (auto &Entry : Why)
      Entry.second = Lost;
    Ind.clear();
  }

  // Time-series side: per-node mean contention (busy + background). A
  // series whose ring dropped frames lost the head of the run, so its
  // means would describe the tail only.
  if (Ts.Dropped > 0) {
    Why["mean_node_busy"] = Why["max_node_busy"] = droppedFramesReason(Ts);
  } else {
    std::map<int64_t, std::pair<double, double>> NodeSum; // sum, count
    for (const TimeSeriesRow &R : Ts.Rows) {
      if (R.Node < 0 ||
          (R.Series != "util_busy" && R.Series != "util_background"))
        continue;
      NodeSum[R.Node].first += R.Value;
      NodeSum[R.Node].second += 1.0;
    }
    if (!NodeSum.empty()) {
      double Mean = 0, Max = 0;
      for (const auto &[Node, SC] : NodeSum) {
        // Busy and background rows of one node count separately, so
        // the per-node mean of their sum is 2 * (sum / rows).
        double NodeMean = SC.second > 0 ? 2.0 * SC.first / SC.second : 0.0;
        Mean += NodeMean;
        Max = std::max(Max, NodeMean);
      }
      Mean /= static_cast<double>(NodeSum.size());
      Ind["mean_node_busy"] = Mean;
      Ind["max_node_busy"] = Max;
    }
  }
  // Invalidation-pass sizing, when the sampler ran: probe values are
  // deltas since enable, so the last frame's value is the run total,
  // dropped frames or not.
  for (const TimeSeriesRow &R : Ts.Rows)
    if (R.Node < 0 && R.Series == "env_scan_placements")
      Ind["env_scan_placements"] = R.Value;
  for (const char *Name :
       {"mean_node_busy", "max_node_busy", "env_scan_placements"})
    if (!Ind.count(Name) && !Why.count(Name))
      Why[Name] = Ts.empty() ? "no time series attached"
                             : "the time series has no rows for it";
  return Ind;
}

std::map<std::string, double>
cws::obs::computeIndicators(const ParsedJournal &J, const ParsedTimeSeries &Ts,
                            std::map<std::string, std::string> *Undefined) {
  std::map<std::string, std::string> Why;
  std::map<std::string, double> Ind =
      indicatorsOf(foldJournal(J), J.Dropped, Ts, Why);
  if (Undefined)
    *Undefined = std::move(Why);
  return Ind;
}

std::vector<SloResult>
cws::obs::evaluateSlo(const std::vector<SloRule> &Rules, const ParsedJournal &J,
                      const ParsedTimeSeries &Ts,
                      const ParsedProfile *Profile) {
  std::map<std::string, std::string> Undefined;
  std::map<std::string, double> Ind = computeIndicators(J, Ts, &Undefined);
  if (Profile)
    addProfileIndicators(*Profile, Ind);
  std::vector<SloResult> Out;
  for (const SloRule &R : Rules) {
    SloResult Res;
    Res.Rule = R;
    auto It = Ind.find(R.Indicator);
    auto Why = Undefined.find(R.Indicator);
    if (!R.Stat.empty() || R.AcrossSeeds) {
      // Distribution rules need the pooled statistics of a sweep; a
      // single run has none, so they fail closed here instead of
      // silently gating on the point value.
      Res.Missing = "a distribution rule needs --sweep";
    } else if (It != Ind.end()) {
      Res.Actual = It->second;
      Res.Pass = R.IsUpper ? Res.Actual <= R.Bound : Res.Actual >= R.Bound;
    } else if (Why != Undefined.end()) {
      Res.Missing = "undefined in this run: " + Why->second;
    } else if (!Profile && R.Indicator.rfind("phase.", 0) == 0) {
      // A budget that passes because nothing was profiled is no budget.
      Res.Missing = "phase indicators need --profile";
    } else {
      // A typo must not silently pass.
      Res.Missing = "no such indicator";
    }
    Out.push_back(std::move(Res));
  }
  return Out;
}

std::string cws::obs::renderSloBreaches(const std::string &Tool,
                                        const std::vector<SloResult> &Slo) {
  std::string Out;
  for (const SloResult &R : Slo) {
    if (R.Pass)
      continue;
    Out += Tool + ": SLO breach: " + R.Rule.fullName();
    if (!R.known()) {
      Out += ": " + R.Missing + "\n";
      continue;
    }
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), " = %g", R.Actual);
    Out += Buf;
    if (!R.Scenario.empty())
      Out += " at " + R.Scenario;
    std::snprintf(Buf, sizeof(Buf), " violates %s %g\n",
                  R.Rule.IsUpper ? "<=" : ">=", R.Rule.Bound);
    Out += Buf;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

/// Fixed-precision rendering for rates and fractions; counts render
/// through renderNumber (no trailing ".000").
static std::string renderRate(double X) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.3f", X);
  return Buf;
}

static std::string renderPercent(double Fraction) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.1f%%", 100.0 * Fraction);
  return Buf;
}

void cws::obs::addProfileIndicators(const ParsedProfile &P,
                                    std::map<std::string, double> &Ind) {
  for (const PhaseStats &Phase : P.Phases) {
    const std::string Prefix = "phase." + Phase.Name + ".";
    Ind[Prefix + "count"] = static_cast<double>(Phase.Count);
    Ind[Prefix + "total_us"] = Phase.TotalUs;
    Ind[Prefix + "self_us"] = Phase.SelfUs;
    Ind[Prefix + "p50_us"] = Phase.P50Us;
    Ind[Prefix + "p99_us"] = Phase.P99Us;
    for (const auto &W : Phase.Work)
      Ind[Prefix + W.first] = static_cast<double>(W.second);
  }
}

std::string cws::obs::renderProfileSection(const ParsedProfile &P) {
  std::string Out = "## Where the time went\n\n";
  if (P.Phases.empty()) {
    Out += "The attached profile recorded no phases.\n\n";
    return Out;
  }
  // Rank by self time — total time double-counts nesting (sim.tick
  // contains nearly everything); self time is where the clock actually
  // burned. Ties break by name for a deterministic report.
  std::vector<const PhaseStats *> Ranked;
  double TotalSelfUs = 0.0;
  for (const PhaseStats &Phase : P.Phases) {
    Ranked.push_back(&Phase);
    TotalSelfUs += Phase.SelfUs;
  }
  std::sort(Ranked.begin(), Ranked.end(),
            [](const PhaseStats *A, const PhaseStats *B) {
              if (A->SelfUs != B->SelfUs)
                return A->SelfUs > B->SelfUs;
              return A->Name < B->Name;
            });
  Out += "| phase | count | total ms | self ms | self share | p50 us | "
         "p99 us | work |\n";
  Out += "|---|---|---|---|---|---|---|---|\n";
  for (const PhaseStats *Phase : Ranked) {
    std::string Work;
    for (const auto &W : Phase->Work) {
      if (!Work.empty())
        Work += ", ";
      Work += W.first + "=" + std::to_string(W.second);
    }
    if (Work.empty())
      Work = "-";
    double Share = TotalSelfUs > 0 ? Phase->SelfUs / TotalSelfUs : 0.0;
    Out += "| " + Phase->Name + " | " + std::to_string(Phase->Count) +
           " | " + renderRate(Phase->TotalUs / 1000.0) + " | " +
           renderRate(Phase->SelfUs / 1000.0) + " | " +
           renderPercent(Share) + " | " + renderRate(Phase->P50Us) + " | " +
           renderRate(Phase->P99Us) + " | " + Work + " |\n";
  }
  Out += "\n";
  return Out;
}

std::string cws::obs::renderRunReport(const ParsedJournal &J,
                                      const ParsedTimeSeries &Ts,
                                      const std::vector<SloResult> &Slo,
                                      const ParsedProfile *Profile) {
  const JournalFold Fold = foldJournal(J);
  std::map<std::string, std::string> Why;
  std::map<std::string, double> Ind = indicatorsOf(Fold, J.Dropped, Ts, Why);
  auto Get = [&Ind](const char *Name) {
    auto It = Ind.find(Name);
    return It == Ind.end() ? 0.0 : It->second;
  };
  // An undefined indicator renders n/a.
  auto Show = [&Ind](const char *Name, std::string (*Render)(double)) {
    auto It = Ind.find(Name);
    return It == Ind.end() ? std::string("n/a") : Render(It->second);
  };
  // The journal-derived sections of a ring-truncated journal.
  const std::string Truncated = "n/a: the journal ring dropped " +
                                std::to_string(J.Dropped) + " events.\n\n";
  Tick Horizon = 0;
  for (const ParsedJournalEvent &E : J.Events)
    Horizon = std::max(Horizon, static_cast<Tick>(E.At));
  for (const TimeSeriesRow &R : Ts.Rows)
    Horizon = std::max(Horizon, R.At);

  std::string Out = "# CWS run report\n\n";

  //===--- Overview -------------------------------------------------------===//
  Out += "## Overview\n\n";
  Out += "| indicator | value |\n|---|---|\n";
  auto Row = [&Out](const std::string &K, const std::string &V) {
    Out += "| " + K + " | " + V + " |\n";
  };
  Row("run horizon (ticks)", std::to_string(Horizon));
  if (J.Dropped > 0)
    Row("journal events dropped", std::to_string(J.Dropped));
  Row("jobs submitted", Show("jobs_submitted", renderNumber));
  Row("jobs committed", Show("jobs_committed", renderNumber));
  Row("jobs rejected", Show("jobs_rejected", renderNumber));
  Row("commit rate", Show("commit_rate", renderPercent));
  Row("deadline miss rate", Show("deadline_miss_rate", renderPercent));
  Row("environment changes", Show("env_changes", renderNumber));
  Row("invalidations", Show("invalidations", renderNumber));
  Row("reallocations", Show("reallocations", renderNumber));
  Row("reallocations per commit",
      Show("reallocations_per_commit", renderRate));
  // Staged-repair mix, present only in repair-mode journals (a
  // rebuild-mode run has no repair.stage events).
  if (Ind.count("realloc_failed")) {
    Row("reallocations repaired (shift)",
        renderNumber(Get("realloc_repaired_shift")));
    Row("reallocations repaired (dp)",
        renderNumber(Get("realloc_repaired_dp")));
    Row("reallocations rebuilt", renderNumber(Get("realloc_rebuilt")));
    Row("reallocations failed", renderNumber(Get("realloc_failed")));
    if (Ind.count("repair_stage12_share"))
      Row("stage-1/2 repair share",
          renderPercent(Get("repair_stage12_share")));
  }
  // Invalidation-pass cost, present only when the run sampled the
  // invalidation probe.
  if (Ind.count("env_scan_placements"))
    Row("placements re-validated (scan)",
        renderNumber(Get("env_scan_placements")));
  Out += "\n";

  //===--- Utilization ----------------------------------------------------===//
  Out += "## Utilization\n\n";
  // Per-node means over every frame that carried occupancy rows.
  struct NodeUtil {
    double Busy = 0, Background = 0, Reserved = 0;
    double BusyN = 0, BackgroundN = 0, ReservedN = 0;
    double meanBusy() const { return BusyN > 0 ? Busy / BusyN : 0; }
    double meanBackground() const {
      return BackgroundN > 0 ? Background / BackgroundN : 0;
    }
    double meanReserved() const {
      return ReservedN > 0 ? Reserved / ReservedN : 0;
    }
    double contention() const { return meanBusy() + meanBackground(); }
  };
  std::map<int64_t, NodeUtil> Nodes;
  for (const TimeSeriesRow &R : Ts.Rows) {
    if (R.Node < 0)
      continue;
    NodeUtil &N = Nodes[R.Node];
    if (R.Series == "util_busy") {
      N.Busy += R.Value;
      N.BusyN += 1;
    } else if (R.Series == "util_background") {
      N.Background += R.Value;
      N.BackgroundN += 1;
    } else if (R.Series == "util_reserved") {
      N.Reserved += R.Value;
      N.ReservedN += 1;
    }
  }
  if (Ts.Dropped > 0) {
    // The means would cover the tail of the run only.
    Out += "n/a: " + droppedFramesReason(Ts) + ".\n\n";
  } else if (Nodes.empty()) {
    Out += "No per-node series in the input (run with `--timeseries`).\n\n";
  } else {
    double MeanBusy = 0, MeanBackground = 0;
    for (const auto &[Id, N] : Nodes) {
      MeanBusy += N.meanBusy();
      MeanBackground += N.meanBackground();
    }
    MeanBusy /= static_cast<double>(Nodes.size());
    MeanBackground /= static_cast<double>(Nodes.size());
    Out += "Grid of " + std::to_string(Nodes.size()) +
           " nodes: mean busy (jobs) " + renderPercent(MeanBusy) +
           ", mean background " + renderPercent(MeanBackground) + ".\n\n";
    // Top-5 most contended: mean busy + background, ties to the lower
    // node id so the report is deterministic.
    std::vector<std::pair<int64_t, const NodeUtil *>> Ranked;
    for (const auto &[Id, N] : Nodes)
      Ranked.push_back({Id, &N});
    std::sort(Ranked.begin(), Ranked.end(),
              [](const auto &A, const auto &B) {
                if (A.second->contention() != B.second->contention())
                  return A.second->contention() > B.second->contention();
                return A.first < B.first;
              });
    if (Ranked.size() > 5)
      Ranked.resize(5);
    Out += "Most contended nodes:\n\n";
    Out += "| node | busy (jobs) | background | reserved (lookahead) |\n";
    Out += "|---|---|---|---|\n";
    for (const auto &[Id, N] : Ranked)
      Out += "| " + std::to_string(Id) + " | " +
             renderPercent(N->meanBusy()) + " | " +
             renderPercent(N->meanBackground()) + " | " +
             renderPercent(N->meanReserved()) + " |\n";
    Out += "\n";
  }

  //===--- Reallocation / invalidation timeline ---------------------------===//
  Out += "## Reallocation / invalidation timeline\n\n";
  double TotalChurn = Get("reallocations") + Get("invalidations");
  if (J.Dropped > 0) {
    Out += Truncated;
  } else if (TotalChurn == 0) {
    Out += "No reallocations or invalidations recorded.\n\n";
  } else {
    // ~12 equal tick buckets across the run.
    const Tick Buckets = 12;
    Tick Width = Horizon / Buckets + 1;
    struct Bucket {
      int64_t Realloc = 0, Invalid = 0, Env = 0;
    };
    std::vector<Bucket> Hist(static_cast<size_t>(Buckets));
    for (const ParsedJournalEvent &E : J.Events) {
      auto Idx = static_cast<size_t>(E.At / Width);
      if (Idx >= Hist.size())
        Idx = Hist.size() - 1;
      if (E.Kind == "reallocate")
        ++Hist[Idx].Realloc;
      else if (E.Kind == "invalidate")
        ++Hist[Idx].Invalid;
      else if (E.Kind == "env.change")
        ++Hist[Idx].Env;
    }
    Out += "| ticks | env.changes | invalidations | reallocations |\n";
    Out += "|---|---|---|---|\n";
    for (size_t I = 0; I < Hist.size(); ++I) {
      Tick Lo = static_cast<Tick>(I) * Width;
      Tick Hi = Lo + Width - 1;
      Out += "| " + std::to_string(Lo) + "–" + std::to_string(Hi) +
             " | " + std::to_string(Hist[I].Env) + " | " +
             std::to_string(Hist[I].Invalid) + " | " +
             std::to_string(Hist[I].Realloc) + " |\n";
    }
    Out += "\n";
  }

  //===--- Per-flow QoS ---------------------------------------------------===//
  Out += "## Per-flow QoS\n\n";
  // The kinds the table counts; a flow with none of them has no row.
  static constexpr JournalKind Columns[] = {
      JournalKind::Arrival, JournalKind::Commit, JournalKind::Reject,
      JournalKind::Invalidate, JournalKind::Reallocate};
  std::string Rows;
  // std::map: flows render in ascending id order, independent of event
  // order.
  for (const auto &[Flow, Counts] : Fold.Flows) {
    std::string Cells;
    int64_t Any = 0;
    for (JournalKind K : Columns) {
      Any += Counts[K];
      Cells += " | " + std::to_string(Counts[K]);
    }
    if (Any == 0)
      continue;
    auto Arrivals = static_cast<double>(Counts[JournalKind::Arrival]);
    auto Commits = static_cast<double>(Counts[JournalKind::Commit]);
    double Rate = Arrivals > 0 ? Commits / Arrivals : 0.0;
    Rows += "| " + (Flow < 0 ? std::string("-") : std::to_string(Flow)) +
            Cells + " | " + renderPercent(Rate) + " |\n";
  }
  if (J.Dropped > 0) {
    Out += Truncated;
  } else if (Rows.empty()) {
    Out += "No per-flow events in the journal.\n\n";
  } else {
    Out += "| flow | arrivals | commits | rejects | invalidations | "
           "reallocations | commit rate |\n";
    Out += "|---|---|---|---|---|---|---|\n";
    Out += Rows + "\n";
  }

  //===--- Phase profile --------------------------------------------------===//
  if (Profile)
    Out += renderProfileSection(*Profile);

  //===--- SLO verdict ----------------------------------------------------===//
  if (!Slo.empty()) {
    Out += "## SLO\n\n";
    Out += "| indicator | rule | actual | status |\n|---|---|---|---|\n";
    bool AllPass = true;
    for (const SloResult &R : Slo) {
      AllPass = AllPass && R.Pass;
      Out += "| " + R.Rule.fullName() + " | " +
             (R.Rule.IsUpper ? "<= " : ">= ") + renderNumber(R.Rule.Bound) +
             " | " + (R.known() ? renderRate(R.Actual) : R.Missing) + " | " +
             (R.Pass ? "ok" : "**BREACH**") + " |\n";
    }
    Out += "\nSLO: " + std::string(AllPass ? "**PASS**" : "**FAIL**") +
           "\n";
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Sweep statistics store
//===----------------------------------------------------------------------===//

double SweepIndicatorStats::stat(const std::string &Name,
                                 bool &Known) const {
  Known = true;
  if (Name.empty() || Name == "mean")
    return Mean;
  if (Name == "ci95")
    return Ci95;
  if (Name == "p50")
    return P50;
  if (Name == "p90")
    return P90;
  if (Name == "p99")
    return P99;
  if (Name == "min")
    return Min;
  if (Name == "max")
    return Max;
  Known = false;
  return std::numeric_limits<double>::quiet_NaN();
}

const SweepIndicatorStats *
SweepScenario::indicator(const std::string &Name) const {
  auto It = Indicators.find(Name);
  return It == Indicators.end() ? nullptr : &It->second;
}

std::string SweepScenario::axisValue(const std::string &Name) const {
  for (const auto &[Axis, Value] : Axes)
    if (Axis == Name)
      return Value;
  return std::string();
}

/// NaN-aware CSV / table cell rendering: undefined statistics read
/// "n/a", never a fake number.
static std::string renderStat(double X) {
  return std::isnan(X) ? "n/a" : renderNumber(X);
}

static const char SweepHeader[] =
    "scenario,axes,indicator,n,mean,stddev,ci95,p50,p90,p99,min,max";

std::string cws::obs::sweepCsv(const SweepStore &S) {
  std::string Out = "# cws-sweep statistics\n# sweep runs=" +
                    std::to_string(S.Runs) +
                    " seeds=" + std::to_string(S.Seeds) + "\n";
  Out += SweepHeader;
  Out += "\n";
  for (const SweepScenario &Sc : S.Scenarios) {
    std::string Axes;
    for (const auto &[Axis, Value] : Sc.Axes) {
      if (!Axes.empty())
        Axes += ';';
      Axes += Axis + "=" + Value;
    }
    // std::map order: indicators render sorted by name.
    for (const auto &[Name, St] : Sc.Indicators) {
      Out += Sc.Id + "," + Axes + "," + Name + "," + std::to_string(St.N) +
             "," + renderStat(St.Mean) + "," + renderStat(St.Stddev) + "," +
             renderStat(St.Ci95) + "," + renderStat(St.P50) + "," +
             renderStat(St.P90) + "," + renderStat(St.P99) + "," +
             renderStat(St.Min) + "," + renderStat(St.Max) + "\n";
    }
  }
  return Out;
}

/// Parses a CSV statistic cell: "n/a" -> NaN, else a finite number.
static bool parseStatField(const std::string &Field, double &Out) {
  if (Field == "n/a") {
    Out = std::numeric_limits<double>::quiet_NaN();
    return true;
  }
  return parseReal(Field, Out);
}

bool cws::obs::parseSweepCsv(const std::string &Text, SweepStore &Out,
                             std::string &Error) {
  Out = SweepStore{};
  LineReader In(Text);
  bool SawHeader = false;
  auto Fail = [&](const std::string &Why) {
    Error = In.error(Why);
    return false;
  };
  // Scenario rows arrive grouped; remember the index of each id so
  // out-of-order files still pool correctly.
  std::map<std::string, size_t> Index;
  while (In.next()) {
    const std::string &Line = In.line();
    if (Line.empty())
      continue;
    if (Line[0] == '#') {
      const std::string Meta = "# sweep ";
      if (Line.compare(0, Meta.size(), Meta) != 0)
        continue;
      for (const std::string &Word : splitFields(Line.substr(Meta.size()),
                                                 " \t", /*SkipEmpty=*/true)) {
        size_t Eq = Word.find('=');
        if (Eq == std::string::npos)
          continue;
        std::string Key = Word.substr(0, Eq), Value = Word.substr(Eq + 1);
        uint64_t *Slot =
            Key == "runs" ? &Out.Runs : Key == "seeds" ? &Out.Seeds : nullptr;
        if (Slot && !parseUint(Value, *Slot))
          return Fail("bad " + Key + " '" + Value + "'");
      }
      continue;
    }
    if (!SawHeader) {
      if (Line != SweepHeader)
        return Fail("expected header '" + std::string(SweepHeader) + "'");
      SawHeader = true;
      continue;
    }
    std::vector<std::string> Fields = splitFields(Line, ",");
    if (Fields.size() != 12)
      return Fail("expected 12 fields, got " + std::to_string(Fields.size()));
    size_t ScIdx;
    if (auto It = Index.find(Fields[0]); It != Index.end()) {
      ScIdx = It->second;
    } else {
      ScIdx = Out.Scenarios.size();
      Index.emplace(Fields[0], ScIdx);
      SweepScenario Sc;
      Sc.Id = Fields[0];
      // axes: `name=value` pairs joined by ';'.
      for (const std::string &Pair :
           splitFields(Fields[1], ";", /*SkipEmpty=*/true)) {
        size_t Eq = Pair.find('=');
        if (Eq == std::string::npos || Eq == 0)
          return Fail("bad axes entry '" + Pair + "'");
        Sc.Axes.emplace_back(Pair.substr(0, Eq), Pair.substr(Eq + 1));
      }
      Out.Scenarios.push_back(std::move(Sc));
    }
    SweepIndicatorStats St;
    if (!parseUint(Fields[3], St.N))
      return Fail("bad n '" + Fields[3] + "'");
    double *Slots[] = {&St.Mean, &St.Stddev, &St.Ci95, &St.P50,
                       &St.P90,  &St.P99,    &St.Min,  &St.Max};
    for (size_t I = 0; I < 8; ++I)
      if (!parseStatField(Fields[4 + I], *Slots[I]))
        return Fail("bad value '" + Fields[4 + I] + "'");
    if (Fields[2].empty())
      return Fail("missing indicator name");
    Out.Scenarios[ScIdx].Indicators[Fields[2]] = St;
  }
  if (!SawHeader) {
    Error = "empty file";
    return false;
  }
  return true;
}

std::vector<SloResult>
cws::obs::evaluateSweepSlo(const std::vector<SloRule> &Rules,
                           const SweepStore &S) {
  std::vector<SloResult> Out;
  for (const SloRule &R : Rules) {
    SloResult Res;
    Res.Rule = R;
    Res.Actual = std::numeric_limits<double>::quiet_NaN();
    bool StatKnown = true;
    for (const SweepScenario &Sc : S.Scenarios) {
      const SweepIndicatorStats *St = Sc.indicator(R.Indicator);
      if (!St || St->N == 0) {
        ++Res.Skipped;
        continue;
      }
      double Value = St->stat(R.Stat, StatKnown);
      if (!StatKnown)
        break;
      ++Res.Evaluated;
      // Track the scenario closest to (or deepest past) the bound.
      bool Worse = std::isnan(Res.Actual) ||
                   (R.IsUpper ? Value > Res.Actual : Value < Res.Actual);
      if (Worse) {
        Res.Actual = Value;
        Res.Scenario = Sc.Id;
      }
    }
    // Fail closed: unknown statistic, or an indicator no scenario
    // produced (a typo or a degenerate grid must not pass the gate).
    if (!StatKnown)
      Res.Missing = "no such statistic";
    else if (Res.Evaluated == 0)
      Res.Missing = "no scenario defines it";
    else // NaN comparisons are false, so an undefined worst value breaches.
      Res.Pass = R.IsUpper ? Res.Actual <= R.Bound : Res.Actual >= R.Bound;
    Out.push_back(std::move(Res));
  }
  return Out;
}

namespace {
/// A scenario's position along one numeric axis, with the context key
/// formed by every *other* axis value.
struct AxisPoint {
  double Axis = 0.0;
  double Value = 0.0;
  std::string Context;
};
} // namespace

std::vector<SweepCrossing>
cws::obs::estimateSweepCrossings(const SweepStore &S,
                                 const std::string &Indicator,
                                 const std::string &Stat, double Bound) {
  std::vector<SweepCrossing> Out;
  if (S.Scenarios.empty())
    return Out;
  // Numeric axes: every scenario value reads as a finite number and at
  // least two distinct values exist.
  std::vector<std::string> AxisNames;
  for (const auto &[Axis, Value] : S.Scenarios.front().Axes)
    AxisNames.push_back(Axis);
  for (const std::string &Axis : AxisNames) {
    std::set<std::string> Distinct;
    std::vector<double> Positions;
    for (const SweepScenario &Sc : S.Scenarios) {
      std::string V = Sc.axisValue(Axis);
      double X = 0.0;
      if (!parseReal(V, X))
        break;
      Positions.push_back(X);
      Distinct.insert(V);
    }
    if (Positions.size() < S.Scenarios.size() || Distinct.size() < 2)
      continue;
    // Group scenarios by the other axes (std::map: deterministic group
    // order), then walk each group along this axis.
    std::map<std::string, std::vector<AxisPoint>> Groups;
    for (size_t I = 0; I < S.Scenarios.size(); ++I) {
      const SweepScenario &Sc = S.Scenarios[I];
      const SweepIndicatorStats *St = Sc.indicator(Indicator);
      if (!St || St->N == 0)
        continue;
      bool Known = true;
      double Value = St->stat(Stat, Known);
      if (!Known || std::isnan(Value))
        continue;
      AxisPoint P;
      P.Axis = Positions[I];
      P.Value = Value;
      for (const auto &[Other, OtherValue] : Sc.Axes) {
        if (Other == Axis)
          continue;
        if (!P.Context.empty())
          P.Context += ", ";
        P.Context += Other + "=" + OtherValue;
      }
      Groups[P.Context].push_back(P);
    }
    for (auto &[Context, Points] : Groups) {
      std::sort(Points.begin(), Points.end(),
                [](const AxisPoint &A, const AxisPoint &B) {
                  return A.Axis < B.Axis;
                });
      for (size_t I = 1; I < Points.size(); ++I) {
        const AxisPoint &Lo = Points[I - 1];
        const AxisPoint &Hi = Points[I];
        double DLo = Lo.Value - Bound;
        double DHi = Hi.Value - Bound;
        // A crossing needs a sign change; a segment whose endpoint sits
        // exactly on the bound counts (interpolation lands on it).
        if ((DLo > 0) == (DHi > 0) && DLo != 0 && DHi != 0)
          continue;
        if (Hi.Axis == Lo.Axis)
          continue;
        SweepCrossing C;
        C.Axis = Axis;
        C.Indicator = Stat.empty() || Stat == "mean"
                          ? Indicator
                          : Indicator + "." + Stat;
        C.Bound = Bound;
        C.LoAxis = Lo.Axis;
        C.HiAxis = Hi.Axis;
        C.LoValue = Lo.Value;
        C.HiValue = Hi.Value;
        C.At = DHi == DLo ? Lo.Axis
                          : Lo.Axis + (Bound - Lo.Value) *
                                          (Hi.Axis - Lo.Axis) /
                                          (Hi.Value - Lo.Value);
        C.Context = Context;
        Out.push_back(std::move(C));
      }
    }
  }
  return Out;
}

/// "0.042 ± 0.011" (mean ± CI95), or "n/a" without samples.
static std::string renderMeanCi(const SweepIndicatorStats *St) {
  if (!St || St->N == 0 || std::isnan(St->Mean))
    return "n/a";
  std::string Out = renderRate(St->Mean);
  if (St->N > 1 && !std::isnan(St->Ci95))
    Out += " ± " + renderRate(St->Ci95);
  return Out;
}

static std::string renderStatCell(const SweepIndicatorStats *St,
                                  const char *Stat) {
  if (!St || St->N == 0)
    return "n/a";
  bool Known = true;
  double V = St->stat(Stat, Known);
  return !Known || std::isnan(V) ? "n/a" : renderRate(V);
}

std::string cws::obs::renderSweepReport(const SweepStore &S,
                                        const std::vector<SloResult> &Slo) {
  std::string Out = "# CWS sweep report\n\n";

  //===--- Overview -------------------------------------------------------===//
  std::set<std::string> IndicatorNames;
  for (const SweepScenario &Sc : S.Scenarios)
    for (const auto &[Name, St] : Sc.Indicators)
      IndicatorNames.insert(Name);
  Out += "## Overview\n\n";
  Out += "| | |\n|---|---|\n";
  Out += "| scenarios | " + std::to_string(S.Scenarios.size()) + " |\n";
  Out += "| seed replicas per scenario | " + std::to_string(S.Seeds) + " |\n";
  Out += "| runs pooled | " + std::to_string(S.Runs) + " |\n";
  Out += "| indicators | " + std::to_string(IndicatorNames.size()) + " |\n\n";

  //===--- Per-scenario QoS -----------------------------------------------===//
  // The curated columns; the CSV store carries every indicator.
  static const char *KeyIndicators[] = {"deadline_miss_rate", "commit_rate",
                                        "reallocations_per_commit",
                                        "mean_node_busy"};
  Out += "## Per-scenario QoS (mean ± 95% CI across seeds)\n\n";
  Out += "| scenario | n | miss rate | miss p90 | commit rate | "
         "realloc/commit | node busy |\n";
  Out += "|---|---|---|---|---|---|---|\n";
  for (const SweepScenario &Sc : S.Scenarios) {
    uint64_t N = 0;
    for (const char *Key : KeyIndicators)
      if (const SweepIndicatorStats *St = Sc.indicator(Key))
        N = std::max(N, St->N);
    const SweepIndicatorStats *Miss = Sc.indicator("deadline_miss_rate");
    Out += "| " + Sc.Id + " | " + std::to_string(N) + " | " +
           renderMeanCi(Miss) + " | " + renderStatCell(Miss, "p90") + " | " +
           renderMeanCi(Sc.indicator("commit_rate")) + " | " +
           renderMeanCi(Sc.indicator("reallocations_per_commit")) + " | " +
           renderMeanCi(Sc.indicator("mean_node_busy")) + " |\n";
  }
  Out += "\nFull per-indicator statistics (p50/p90/p99, min/max) are in "
         "the sweep CSV store.\n\n";

  //===--- Per-axis trends ------------------------------------------------===//
  // Marginal means: scenarios sharing one axis value averaged together
  // (each scenario weighted equally).
  if (!S.Scenarios.empty()) {
    for (const auto &[Axis, FirstValue] : S.Scenarios.front().Axes) {
      std::set<std::string> Distinct;
      for (const SweepScenario &Sc : S.Scenarios)
        Distinct.insert(Sc.axisValue(Axis));
      if (Distinct.size() < 2)
        continue;
      // Axis values in grid order (first-seen across scenarios), so
      // numeric axes render in sweep order, not lexicographic.
      std::vector<std::string> Ordered;
      for (const SweepScenario &Sc : S.Scenarios) {
        std::string V = Sc.axisValue(Axis);
        if (std::find(Ordered.begin(), Ordered.end(), V) == Ordered.end())
          Ordered.push_back(V);
      }
      Out += "## Trend along " + Axis + "\n\n";
      Out += "| " + Axis + " | scenarios | miss rate | commit rate | "
             "realloc/commit | node busy |\n";
      Out += "|---|---|---|---|---|---|\n";
      for (const std::string &V : Ordered) {
        double Sums[4] = {0, 0, 0, 0};
        uint64_t Counts[4] = {0, 0, 0, 0};
        uint64_t Members = 0;
        for (const SweepScenario &Sc : S.Scenarios) {
          if (Sc.axisValue(Axis) != V)
            continue;
          ++Members;
          for (size_t K = 0; K < 4; ++K) {
            const SweepIndicatorStats *St = Sc.indicator(KeyIndicators[K]);
            if (St && St->N > 0 && !std::isnan(St->Mean)) {
              Sums[K] += St->Mean;
              ++Counts[K];
            }
          }
        }
        Out += "| " + V + " | " + std::to_string(Members) + " |";
        for (size_t K = 0; K < 4; ++K)
          Out += std::string(" ") +
                 (Counts[K] ? renderRate(Sums[K] /
                                         static_cast<double>(Counts[K]))
                            : "n/a") +
                 " |";
        Out += "\n";
      }
      Out += "\n";
    }
  }

  //===--- Crossing points ------------------------------------------------===//
  // Where each SLO rule's statistic crosses its bound along numeric
  // axes — the capacity-question answers ("at what arrival rate does
  // the miss rate cross 5%?").
  std::vector<SweepCrossing> Crossings;
  for (const SloResult &R : Slo) {
    std::vector<SweepCrossing> C = estimateSweepCrossings(
        S, R.Rule.Indicator, R.Rule.Stat, R.Rule.Bound);
    Crossings.insert(Crossings.end(), C.begin(), C.end());
  }
  if (!Slo.empty()) {
    Out += "## Crossing points\n\n";
    if (Crossings.empty()) {
      Out += "No SLO bound is crossed along any numeric axis.\n\n";
    } else {
      for (const SweepCrossing &C : Crossings) {
        char Buf[64];
        std::snprintf(Buf, sizeof(Buf), "%.3g", C.At);
        Out += "- `" + C.Indicator + "` crosses " + renderNumber(C.Bound) +
               " between " + C.Axis + "=" + renderNumber(C.LoAxis) + " (" +
               renderRate(C.LoValue) + ") and " + C.Axis + "=" +
               renderNumber(C.HiAxis) + " (" + renderRate(C.HiValue) +
               ") at ≈ " + Buf;
        if (!C.Context.empty())
          Out += " (" + C.Context + ")";
        Out += "\n";
      }
      Out += "\n";
    }
  }

  //===--- SLO verdict ----------------------------------------------------===//
  if (!Slo.empty()) {
    Out += "## SLO (gating pooled statistics across seeds)\n\n";
    Out += "| rule | bound | worst scenario | actual | status |\n";
    Out += "|---|---|---|---|---|\n";
    bool AllPass = true;
    for (const SloResult &R : Slo) {
      AllPass = AllPass && R.Pass;
      Out += "| " + R.Rule.fullName() + " | " +
             (R.Rule.IsUpper ? "<= " : ">= ") + renderNumber(R.Rule.Bound) +
             " | " + (R.known() ? R.Scenario : "-") + " | " +
             (R.known() ? renderRate(R.Actual) : R.Missing) + " | " +
             (R.Pass ? "ok" : "**BREACH**") + " |\n";
    }
    Out += "\nSLO: " + std::string(AllPass ? "**PASS**" : "**FAIL**") +
           "\n";
  }
  return Out;
}

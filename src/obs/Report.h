//===-- obs/Report.h - Run reports and SLO evaluation -----------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analysis layer behind `tools/cws-report`: it joins a decision
/// journal (`--journal`) with a telemetry time series (`--timeseries`,
/// CSV form) into one Markdown run report — utilization summary with
/// the most-contended nodes, a reallocation/invalidation timeline,
/// and a per-flow QoS table — and evaluates service-level objectives
/// from a plain-text SLO file:
///
///   # lines are comments; each rule is `indicator <= bound` (or >=)
///   deadline_miss_rate    <= 0.05
///   reallocations_per_commit <= 0.5
///
/// Indicators are derived from the journal and series (see
/// `computeIndicators`); a rule without a value fails closed and says
/// why. `cws-report --slo` exits nonzero on any breach, making the
/// report a CI-gateable alerting analog.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_OBS_REPORT_H
#define CWS_OBS_REPORT_H

#include "obs/Journal.h"
#include "obs/Profiler.h"
#include "sim/Time.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cws {
namespace obs {

/// One row of a tidy time-series CSV (`TimeSeries::csv()` schema:
/// `seq,tick,reason,series,node,flow,value`).
struct TimeSeriesRow {
  uint64_t Seq = 0;
  Tick At = 0;
  std::string Reason;
  std::string Series;
  /// Node id of per-node rows, -1 otherwise.
  int64_t Node = -1;
  /// Flow label of per-flow rows, empty otherwise.
  std::string Flow;
  double Value = 0.0;
};

/// A parsed time-series file.
struct ParsedTimeSeries {
  /// Provenance stamp of the leading `# provenance ...` comment;
  /// `!Prov.valid()` for unstamped files.
  RunProvenance Prov;
  /// Frames the sampler's ring dropped before the first row: frames
  /// are numbered from 0 at enable, so the first row's `seq`.
  uint64_t Dropped = 0;
  std::vector<TimeSeriesRow> Rows;
  bool empty() const { return Rows.empty(); }
};

/// Parses CSV text written by `TimeSeries::csv()`. Leading `#` comment
/// lines are allowed before the header; a `# provenance ...` comment
/// fills `Out.Prov`. A `seq` is a count, a `tick` and a `node` are
/// int64 and a `value` is a finite number. Returns false and sets
/// \p Error (with a 1-based line number) on malformed input.
bool parseTimeSeriesCsv(const std::string &Text, ParsedTimeSeries &Out,
                        std::string &Error);

/// One SLO rule: `Indicator <= Bound` (IsUpper) or `Indicator >=
/// Bound`. The sweep grammar adds a pooled-statistic suffix and scope:
///
///   deadline_miss_rate.p90 <= 0.05 across seeds
///
/// parses to Indicator="deadline_miss_rate", Stat="p90",
/// AcrossSeeds=true. Stat rules gate per-scenario pooled distributions
/// (`evaluateSweepSlo`); in single-run evaluation they have no value
/// and fail closed.
struct SloRule {
  std::string Indicator;
  bool IsUpper = true;
  double Bound = 0.0;
  /// Pooled statistic: "" (run value; scenario mean in sweep mode) or
  /// one of "mean", "p50", "p90", "p99", "min", "max", "ci95".
  std::string Stat;
  /// True for rules suffixed `across seeds` — explicit sweep scope.
  bool AcrossSeeds = false;

  /// The rule's full spelled name ("deadline_miss_rate.p90").
  std::string fullName() const {
    return Stat.empty() ? Indicator : Indicator + "." + Stat;
  }
};

/// Parses an SLO file: one rule per line (`indicator <= bound`,
/// `indicator >= bound`, optional `.stat` suffix on the indicator and
/// `across seeds` trailer after the bound), `#` comments and blank
/// lines ignored. Returns false and sets \p Error on a malformed line.
bool parseSloFile(const std::string &Text, std::vector<SloRule> &Out,
                  std::string &Error);

/// Derives the gateable indicators from \p J joined with \p Ts:
///
///  - `jobs_submitted` / `jobs_committed` / `jobs_rejected` — journal
///    arrival / commit / reject event counts;
///  - `commit_rate` / `reject_rate` — of submitted jobs (0 when none);
///  - `deadline_miss_rate` — committed jobs whose completion (actual
///    execution completion when recorded, else the committed makespan,
///    an absolute tick) exceeds their arrival deadline, over committed
///    jobs;
///  - `reallocations` / `invalidations` / `env_changes` — event counts;
///  - `reallocations_per_commit` — reallocations over committed jobs
///    (over 1 when nothing committed);
///  - `mean_commit_cost` / `mean_commit_cf` — mean committed schedule
///    cost / cost-function value (absent with no commits; the journal
///    records each commit's cost as a whole number);
///  - `realloc_repaired_shift` / `realloc_repaired_dp` /
///    `realloc_rebuilt` / `realloc_failed` — staged-repair outcome
///    counts, and `repair_stage12_share` — shift and DP repairs over the
///    reallocations that delivered a strategy (repair-mode journals
///    only; absent without `repair.stage` events);
///  - `mean_node_busy` / `max_node_busy` — grid mean / per-node max of
///    the mean `util_busy` + `util_background` fraction (time-series
///    only; absent without one);
///  - `env_scan_placements` — placements the invalidation passes
///    re-validated (time-series only; absent when not sampled).
///
/// Every journal-derived indicator is absent when the journal's ring
/// dropped events (`J.Dropped > 0`): the run's head is lost, so SLO
/// rules on them fail closed. When \p Undefined is given, it receives
/// each indicator this run leaves out, with the reason.
std::map<std::string, double>
computeIndicators(const ParsedJournal &J, const ParsedTimeSeries &Ts,
                  std::map<std::string, std::string> *Undefined = nullptr);

/// Outcome of one SLO rule, in a single run or across a sweep.
struct SloResult {
  SloRule Rule;
  /// The value checked against the bound: the run's indicator, or in a
  /// sweep the worst scenario's statistic (largest for `<=` rules,
  /// smallest for `>=`). Meaningless when the rule has no value.
  double Actual = 0.0;
  /// Sweep only: the scenario holding `Actual`.
  std::string Scenario;
  /// Why the rule has no value; empty when it has one. A rule without
  /// a value fails closed.
  std::string Missing;
  bool Pass = false;
  /// Sweep only: scenarios evaluated / skipped for lacking the
  /// indicator.
  uint64_t Evaluated = 0;
  uint64_t Skipped = 0;

  bool known() const { return Missing.empty(); }
};

/// Evaluates single-run rules against the indicators of \p J joined
/// with \p Ts, plus the `phase.*` indicators of \p Profile when one is
/// attached. A rule without a value fails closed, and `Missing` says
/// why: a distribution rule needs a sweep; a `phase.*` rule needs a
/// profile; an indicator `computeIndicators` can define was left
/// undefined by this run (no judged job, a ring-truncated journal, no
/// time series, a rebuild-mode journal); or nothing defines the name.
std::vector<SloResult> evaluateSlo(const std::vector<SloRule> &Rules,
                                   const ParsedJournal &J,
                                   const ParsedTimeSeries &Ts,
                                   const ParsedProfile *Profile = nullptr);

/// One `<Tool>: SLO breach: ...` line per failed rule of \p Slo (run or
/// sweep results), with the rule's full name and its value or the
/// reason it has none; empty when every rule passed.
std::string renderSloBreaches(const std::string &Tool,
                              const std::vector<SloResult> &Slo);

/// Adds the `phase.*` indicators of profile \p P to \p Ind, making
/// phase budgets SLO-gateable: per phase `phase.<name>.count`,
/// `.total_us`, `.self_us`, `.p50_us`, `.p99_us`, plus one
/// `phase.<name>.<counter>` per work counter. Without an attached
/// profile these indicators stay unknown, so `phase.*` rules fail
/// closed — a budget that silently passes because nothing was profiled
/// is not a budget.
void addProfileIndicators(const ParsedProfile &P,
                          std::map<std::string, double> &Ind);

/// Renders the "Where the time went" Markdown section of profile \p P:
/// every phase ranked by self time, with counts, total/self wall time,
/// per-scope quantiles and the work-counter context. Deterministic for
/// a fixed profile up to the measured times it reports.
std::string renderProfileSection(const ParsedProfile &P);

/// Renders the Markdown run report: overview, utilization summary with
/// the top-5 most-contended nodes, the reallocation / invalidation
/// timeline, the per-flow QoS table (flows in ascending id order), the
/// "Where the time went" phase breakdown when a profile \p Profile is
/// attached, and the SLO verdict when \p Slo is non-empty. For a
/// journal whose ring dropped events, the overview states the dropped
/// count and the journal-derived rows and sections render n/a.
/// Deterministic for fixed inputs.
std::string renderRunReport(const ParsedJournal &J,
                            const ParsedTimeSeries &Ts,
                            const std::vector<SloResult> &Slo,
                            const ParsedProfile *Profile = nullptr);

//===----------------------------------------------------------------------===//
// Sweep statistics store (cws-sweep output, cws-report --sweep input)
//===----------------------------------------------------------------------===//

/// Pooled statistics of one QoS indicator across the seed replicas of
/// one scenario. All fields are NaN when `N == 0` (rendered "n/a"; SLO
/// comparisons against NaN fail closed).
struct SweepIndicatorStats {
  /// Runs of the scenario that produced the indicator (an indicator
  /// like `deadline_miss_rate` is undefined for runs with no judged
  /// jobs, so N may be below the scenario's run count).
  uint64_t N = 0;
  double Mean = 0.0;
  /// Sample standard deviation (0 for N == 1).
  double Stddev = 0.0;
  /// Half-width of the two-sided 95% confidence interval of the mean,
  /// `tCritical95(N-1) * Stddev / sqrt(N)` (0 for N == 1).
  double Ci95 = 0.0;
  double P50 = 0.0;
  double P90 = 0.0;
  double P99 = 0.0;
  double Min = 0.0;
  double Max = 0.0;

  /// Value of the named statistic ("mean", "ci95", "p50", "p90",
  /// "p99", "min", "max"); sets \p Known false on an unknown name.
  double stat(const std::string &Name, bool &Known) const;
};

/// One scenario of a sweep: its id, axis assignment, and pooled
/// per-indicator statistics.
struct SweepScenario {
  /// Token-shaped id ("arrival_scale=0.5+strategy=S2"); never contains
  /// whitespace or commas.
  std::string Id;
  /// Axis name -> value text, in grid declaration order.
  std::vector<std::pair<std::string, std::string>> Axes;
  std::map<std::string, SweepIndicatorStats> Indicators;

  const SweepIndicatorStats *indicator(const std::string &Name) const;
  /// Value of axis \p Name, empty when the scenario has no such axis.
  std::string axisValue(const std::string &Name) const;
};

/// The sweep statistics store: everything `cws-sweep` pools out of a
/// scenario grid run, in grid expansion order.
struct SweepStore {
  /// Seed replicas per scenario.
  uint64_t Seeds = 0;
  /// Total runs pooled.
  uint64_t Runs = 0;
  std::vector<SweepScenario> Scenarios;
};

/// Serializes \p S as the sweep statistics CSV:
///
///   # cws-sweep statistics
///   # sweep runs=<N> seeds=<K>
///   scenario,axes,indicator,n,mean,stddev,ci95,p50,p90,p99,min,max
///
/// one row per (scenario, indicator); the `axes` column is
/// `;`-separated `name=value` pairs; NaN fields render "n/a".
/// Deterministic for a fixed store.
std::string sweepCsv(const SweepStore &S);

/// Parses text written by `sweepCsv`. Returns false and sets \p Error
/// (with a 1-based line number) on malformed input.
bool parseSweepCsv(const std::string &Text, SweepStore &Out,
                   std::string &Error);

/// Evaluates sweep SLO rules: a rule's statistic defaults to the
/// scenario mean when no `.stat` suffix is given. A rule gates every
/// scenario: it passes only when each scenario that defines the
/// indicator satisfies the bound, and at least one does (an indicator
/// no scenario produced fails closed).
std::vector<SloResult> evaluateSweepSlo(const std::vector<SloRule> &Rules,
                                        const SweepStore &S);

/// One estimated threshold crossing along a numeric scenario axis: the
/// indicator's pooled statistic moves across \p Bound between two
/// adjacent axis values (all other axes held fixed), located by linear
/// interpolation.
struct SweepCrossing {
  std::string Axis;
  /// Spelled indicator ("deadline_miss_rate.p90").
  std::string Indicator;
  double Bound = 0.0;
  /// Bracketing axis values and the statistic there.
  double LoAxis = 0.0, HiAxis = 0.0;
  double LoValue = 0.0, HiValue = 0.0;
  /// Interpolated axis position of the crossing.
  double At = 0.0;
  /// The held-fixed other axes, "name=value, name=value" (empty for a
  /// one-axis sweep).
  std::string Context;
};

/// Estimates where \p Indicator's \p Stat ("" = mean) crosses \p Bound
/// along each numeric axis of the sweep. Scenario groups that never
/// straddle the bound contribute no crossing.
std::vector<SweepCrossing> estimateSweepCrossings(const SweepStore &S,
                                                  const std::string &Indicator,
                                                  const std::string &Stat,
                                                  double Bound);

/// Renders the Markdown sweep report: overview, the per-scenario QoS
/// table (mean ± CI95 and p90 of the key indicators), per-axis trend
/// tables of marginal means, crossing-point estimates for each SLO
/// rule, and the SLO verdict. Deterministic for fixed inputs.
std::string renderSweepReport(const SweepStore &S,
                              const std::vector<SloResult> &Slo);

} // namespace obs
} // namespace cws

#endif // CWS_OBS_REPORT_H

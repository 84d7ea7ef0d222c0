//===-- bench/harness.h - Structured benchmark harness ----------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The structured benchmark harness behind `tools/cws-bench`: benches
/// self-register with `CWS_BENCH`, the runner executes them with
/// warmup/repetition discipline, pools per-repetition metric samples
/// through `sweep::SweepAccumulator` (mean, stddev, CI95, exact
/// quantiles), and emits one schema-validated `BENCH_<name>.json` per
/// bench carrying:
///
///  - a provenance stamp (seed, exec seed, config hash, scenario,
///    shards, CLI) — the same fail-loudly identity `cws-sweep` pooling
///    applies;
///  - **work counters**: deterministic per-run quantities (placements
///    re-validated, DP labels kept, variants built). The harness checks
///    them stable across repetitions and `cws-bench --against` gates on
///    them exactly — the only honest ratchet on a shared 4-vCPU host;
///  - **metrics**: measured distributions (wall times, throughputs).
///    A moved metric outside the ratchet's noise test (CI overlap and
///    a 10% quantile shift) is reported, but metrics are always
///    *advisory* — they never move the exit code;
///  - **checks**: named pass/fail invariants (differential oracles,
///    overhead budgets). Any failure fails the bench run itself;
///  - the merged phase **profile** of the measured repetitions.
///
/// Comparison verdicts follow the repo-wide exit convention: 0 pass
/// (identical or wall-time-only wobble), 1 regression (work counter or
/// check), 2 refusal (provenance identity mismatch, missing baseline,
/// I/O, schema).
///
//===----------------------------------------------------------------------===//

#ifndef CWS_BENCH_HARNESS_H
#define CWS_BENCH_HARNESS_H

#include "obs/Profiler.h"
#include "obs/Provenance.h"
#include "obs/Report.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cws {
namespace bench {

class BenchContext;
using BenchFn = void (*)(BenchContext &);

/// One registered benchmark.
struct BenchInfo {
  const char *Name;
  const char *Description;
  BenchFn Fn;
  /// Measured repetitions / discarded warmup repetitions when the CLI
  /// does not override them.
  int DefaultReps = 3;
  int DefaultWarmup = 1;
  /// False for benches that measure observability primitives and must
  /// control the profiler themselves (obs_overhead).
  bool Profile = true;
};

/// The process-wide bench registry `CWS_BENCH` populates.
class BenchRegistry {
public:
  static BenchRegistry &global();
  void add(const BenchInfo &Info);
  /// All registered benches, sorted by name.
  std::vector<const BenchInfo *> all() const;

private:
  std::vector<BenchInfo> Benches;
};

/// Static-initializer hook of the `CWS_BENCH` macro.
struct BenchRegistrar {
  explicit BenchRegistrar(const BenchInfo &Info) {
    BenchRegistry::global().add(Info);
  }
};

/// Declares and registers a bench body:
///
///   CWS_BENCH(realloc_repair, "reallocation cost and stage mix", 3, 1,
///             /*Profile=*/true) {
///     Ctx.setSeed(7);
///     ...
///   }
#define CWS_BENCH(NameIdent, Desc, Reps, Warmup, Prof)                         \
  static void NameIdent##BenchBody(::cws::bench::BenchContext &);              \
  static ::cws::bench::BenchRegistrar NameIdent##BenchReg(                     \
      {#NameIdent, Desc, &NameIdent##BenchBody, Reps, Warmup, Prof});          \
  static void NameIdent##BenchBody(::cws::bench::BenchContext &Ctx)

/// One named pass/fail invariant of a bench run.
struct CheckOutcome {
  std::string What;
  bool Pass = true;
};

/// The per-repetition recording surface a bench body writes into.
class BenchContext {
public:
  /// False while the harness is warming up; samples, work and checks
  /// recorded during warmup are discarded.
  bool measured() const { return Measured; }
  /// 0-based measured repetition index.
  size_t rep() const { return Rep; }

  /// Canonical configuration text hashed (with the bench name) into
  /// the provenance config hash; pass the knobs that shape the
  /// workload, `key=value` per line.
  void setConfig(const std::string &CanonicalText);
  /// Workload seed stamped into provenance.
  void setSeed(uint64_t S);
  /// Execution-stage seed stamped into provenance (defaults to the
  /// workload seed; VO benches pass the root seed the per-job
  /// execution PRNGs fork from).
  void setExecSeed(uint64_t S);

  /// Records a deterministic work counter. Values must agree across
  /// measured repetitions; a disagreement records a failed
  /// `work_stable:<counter>` check.
  void setWork(const std::string &Counter, uint64_t Value);
  /// Records one sample of a measured metric for this repetition. A
  /// non-finite sample is dropped and records a failed
  /// `metric_finite:<name>` check.
  void addMetric(const std::string &Name, double Sample);
  /// Records a named invariant; any failure fails the bench.
  void check(const std::string &What, bool Ok);

private:
  friend struct BenchRunner;
  bool Measured = false;
  size_t Rep = 0;
  std::string ConfigText;
  uint64_t Seed = 0;
  uint64_t ExecSeed = 0;
  bool ExecSeedSet = false;
  std::vector<std::pair<std::string, uint64_t>> Work;
  std::map<std::string, double> RepMetrics;
  std::vector<CheckOutcome> Checks;
};

/// Everything one bench run produced; `json()` is the
/// `BENCH_<name>.json` document.
struct BenchRun {
  const BenchInfo *Info = nullptr;
  obs::RunProvenance Prov;
  uint64_t ExecSeed = 0;
  int Reps = 0;
  int Warmup = 0;
  /// Sorted by counter name.
  std::vector<std::pair<std::string, uint64_t>> Work;
  /// Sorted by check name.
  std::vector<CheckOutcome> Checks;
  /// Metric name -> pooled repetition statistics.
  std::map<std::string, obs::SweepIndicatorStats> Metrics;
  /// Merged phase profile of the measured repetitions.
  std::vector<obs::PhaseStats> Profile;

  bool passed() const;
  /// The `cws-bench-v1` JSON document.
  std::string json() const;
};

/// Work counter \p Counter of profiler phase \p Phase merged so far (0
/// when the profiler has not seen it); an entry takes the difference
/// around the run it measures.
uint64_t phaseWork(const char *Phase, const char *Counter);

/// Runs \p Info with \p Reps measured and \p Warmup discarded
/// repetitions. Non-positive \p Reps and negative \p Warmup fall back
/// to the bench defaults (zero warmup is a legitimate explicit
/// choice); \p Cli is stamped into provenance.
BenchRun runBench(const BenchInfo &Info, int Reps, int Warmup,
                  const std::string &Cli);

/// One phase of a parsed profile: what the ratchet compares. Its
/// times are not kept; the run's wall time is in its metrics.
struct ParsedPhase {
  std::string Name;
  uint64_t Count = 0;
  /// Sorted by counter name.
  std::vector<std::pair<std::string, uint64_t>> Work;
};

/// A parsed `BENCH_<name>.json`.
struct ParsedBench {
  std::string Name;
  std::string Description;
  uint64_t Seed = 0;
  uint64_t ExecSeed = 0;
  std::string ConfigHash;
  std::string Scenario;
  std::string Cli;
  int64_t Shards = 0;
  int64_t Reps = 0;
  int64_t Warmup = 0;
  std::vector<std::pair<std::string, uint64_t>> Work;
  std::vector<CheckOutcome> Checks;
  std::map<std::string, obs::SweepIndicatorStats> Metrics;
  /// Sorted by phase name.
  std::vector<ParsedPhase> Profile;
};

/// Parses text written by `BenchRun::json`. Returns false and sets
/// \p Error on malformed input or a schema mismatch.
bool parseBenchJson(const std::string &Text, ParsedBench &Out,
                    std::string &Error);

/// Comparison outcome of one bench against its baseline, ordered by
/// severity.
enum class BenchVerdict : uint8_t {
  /// Work, checks and metric statistics field-equal.
  Identical,
  /// Work and checks equal; some metric moved, but metrics are
  /// advisory (wall-time wobble).
  Compatible,
  /// A work counter changed, appeared or dropped, a check fails or
  /// dropped, or a profile phase of a run with the baseline's reps and
  /// warmup appeared, dropped, or changed its count or a work counter —
  /// the hard gate.
  Regressed,
  /// Provenance identity mismatch: the runs measure different
  /// configurations and must not be compared.
  Refused,
};

const char *benchVerdictName(BenchVerdict V);

/// Result of `compareBench`.
struct BenchCompareResult {
  BenchVerdict Verdict = BenchVerdict::Identical;
  /// Hard findings: work-counter mismatches, failed checks, profile
  /// changes between runs of equal reps and warmup.
  std::vector<std::string> Gated;
  /// Advisory findings: metric shifts outside the CI-overlap /
  /// quantile-shift tolerance, one-sided records, profile changes
  /// between runs of different reps or warmup.
  std::vector<std::string> Advisory;
  /// Refusal causes: the mismatched provenance identity fields.
  std::vector<std::string> Mismatched;
};

/// Compares \p New against \p Base. Identity fields (config hash,
/// scenario, seed, exec seed) must match or the verdict is Refused;
/// shard count and CLI text may differ (committed BENCH files record a
/// shard count, which is now always 1). Work counters
/// and checks gate, including a check the baseline recorded and the
/// new run does not. The profile's phase names, counts and work
/// counters are deterministic for a given reps and warmup, so they gate
/// when both runs have the same of each and are advisory otherwise;
/// phase times never gate. A metric that moved is an advisory finding
/// when it fails the noise test: equal sample counts, overlapping 95%
/// CIs of the means, and p50/p90/p99 each within 10% of the larger
/// magnitude.
BenchCompareResult compareBench(const ParsedBench &Base,
                                const ParsedBench &New);

/// Renders one bench run as console text (work / metric / check
/// tables).
std::string renderBenchRun(const BenchRun &Run);

/// Renders a comparison: verdict line plus finding lines.
std::string renderBenchCompare(const std::string &Name,
                               const BenchCompareResult &R);

/// The `cws-bench` CLI. Returns the process exit code.
int benchMain(int Argc, char **Argv);

} // namespace bench
} // namespace cws

#endif // CWS_BENCH_HARNESS_H

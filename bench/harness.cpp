//===-- bench/harness.cpp - Structured benchmark harness ------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "harness.h"
#include "flow/VirtualOrganization.h"
#include "obs/Diff.h"
#include "obs/Metrics.h"
#include "support/Check.h"
#include "support/File.h"
#include "support/Flags.h"
#include "support/Json.h"
#include "support/Table.h"
#include "sweep/Stats.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <sstream>

using namespace cws;
using namespace cws::bench;

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

BenchRegistry &BenchRegistry::global() {
  static BenchRegistry R;
  return R;
}

void BenchRegistry::add(const BenchInfo &Info) { Benches.push_back(Info); }

std::vector<const BenchInfo *> BenchRegistry::all() const {
  std::vector<const BenchInfo *> Out;
  Out.reserve(Benches.size());
  for (const BenchInfo &B : Benches)
    Out.push_back(&B);
  std::sort(Out.begin(), Out.end(),
            [](const BenchInfo *A, const BenchInfo *B) {
              return std::string(A->Name) < B->Name;
            });
  return Out;
}

//===----------------------------------------------------------------------===//
// BenchContext
//===----------------------------------------------------------------------===//

void BenchContext::setConfig(const std::string &CanonicalText) {
  ConfigText = CanonicalText;
}

void BenchContext::setSeed(uint64_t S) { Seed = S; }

void BenchContext::setExecSeed(uint64_t S) {
  ExecSeed = S;
  ExecSeedSet = true;
}

void BenchContext::setWork(const std::string &Counter, uint64_t Value) {
  if (!Measured)
    return;
  for (auto &W : Work)
    if (W.first == Counter) {
      W.second = Value;
      return;
    }
  Work.push_back({Counter, Value});
}

void BenchContext::addMetric(const std::string &Name, double Sample) {
  if (!Measured)
    return;
  // A non-finite sample has no JSON number form; drop it and fail the
  // run instead of writing a BENCH file no reader accepts.
  if (!std::isfinite(Sample)) {
    Checks.push_back({"metric_finite:" + Name, false});
    return;
  }
  RepMetrics[Name] = Sample;
}

void BenchContext::check(const std::string &What, bool Ok) {
  if (!Measured)
    return;
  Checks.push_back({What, Ok});
}

//===----------------------------------------------------------------------===//
// Runner
//===----------------------------------------------------------------------===//

namespace cws {
namespace bench {

/// Drives the warmup/measured repetitions of one bench; friend of
/// BenchContext so the harness owns the per-repetition state machine.
struct BenchRunner {
  static BenchRun run(const BenchInfo &Info, int Reps, int Warmup,
                      const std::string &Cli) {
    if (Reps <= 0)
      Reps = Info.DefaultReps;
    if (Warmup < 0)
      Warmup = Info.DefaultWarmup;
    CWS_CHECK(Reps > 0, "a bench needs at least one measured repetition");

    BenchRun Run;
    Run.Info = &Info;
    Run.Reps = Reps;
    Run.Warmup = Warmup;

    BenchContext Ctx;
    for (int W = 0; W < Warmup; ++W) {
      Ctx.Measured = false;
      Info.Fn(Ctx);
    }

    if (Info.Profile) {
      obs::Profiler::global().reset();
      obs::Profiler::global().enable();
    }

    sweep::SweepAccumulator Acc({{std::string("bench:") + Info.Name, {}}},
                                static_cast<uint64_t>(Reps));
    std::vector<std::pair<std::string, uint64_t>> RefWork;
    // Merged check verdicts: a check passes only when it passed in
    // every measured repetition.
    std::vector<CheckOutcome> Merged;
    auto MergeCheck = [&Merged](const std::string &What, bool Ok) {
      for (auto &C : Merged)
        if (C.What == What) {
          C.Pass = C.Pass && Ok;
          return;
        }
      Merged.push_back({What, Ok});
    };

    for (int R = 0; R < Reps; ++R) {
      Ctx.Measured = true;
      Ctx.Rep = static_cast<size_t>(R);
      Ctx.Work.clear();
      Ctx.RepMetrics.clear();
      Ctx.Checks.clear();
      auto T0 = std::chrono::steady_clock::now();
      Info.Fn(Ctx);
      double WallUs =
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - T0)
              .count();
      Ctx.RepMetrics["wall_us"] = WallUs;
      Acc.addRun(0, Ctx.RepMetrics);
      for (const CheckOutcome &C : Ctx.Checks)
        MergeCheck(C.What, C.Pass);
      // Work counters are deterministic quantities of a fixed
      // workload: every measured repetition must report the same set
      // and values, or the counter is not a counter.
      std::sort(Ctx.Work.begin(), Ctx.Work.end());
      if (R == 0)
        RefWork = Ctx.Work;
      else if (Ctx.Work != RefWork)
        MergeCheck("work_stable", false);
    }

    if (Info.Profile) {
      obs::Profiler::global().disable();
      Run.Profile = obs::Profiler::global().snapshot();
      obs::Profiler::global().reset();
    }

    Run.Work = std::move(RefWork);
    std::sort(Merged.begin(), Merged.end(),
              [](const CheckOutcome &A, const CheckOutcome &B) {
                return A.What < B.What;
              });
    Run.Checks = std::move(Merged);
    obs::SweepStore Store = Acc.finalize();
    CWS_CHECK(Store.Scenarios.size() == 1, "one bench pools one scenario");
    Run.Metrics = Store.Scenarios[0].Indicators;

    Run.Prov.Stamped = true;
    Run.Prov.Seed = Ctx.Seed;
    Run.Prov.ConfigHash = obs::configHashOf(
        std::string("bench ") + Info.Name + "\n" + Ctx.ConfigText);
    Run.Prov.ScenarioId = std::string("bench:") + Info.Name;
    Run.Prov.Shards = static_cast<int64_t>(resolveShardCount(0));
    Run.Prov.Cli = Cli;
    Run.ExecSeed = Ctx.ExecSeedSet ? Ctx.ExecSeed : Ctx.Seed;
    return Run;
  }
};

} // namespace bench
} // namespace cws

uint64_t cws::bench::phaseWork(const char *Phase, const char *Counter) {
  for (const obs::PhaseStats &P : obs::Profiler::global().snapshot())
    if (P.Name == Phase)
      if (const uint64_t *W = P.work(Counter))
        return *W;
  return 0;
}

BenchRun cws::bench::runBench(const BenchInfo &Info, int Reps, int Warmup,
                              const std::string &Cli) {
  return BenchRunner::run(Info, Reps, Warmup, Cli);
}

bool BenchRun::passed() const {
  for (const CheckOutcome &C : Checks)
    if (!C.Pass)
      return false;
  return true;
}

//===----------------------------------------------------------------------===//
// JSON writer
//===----------------------------------------------------------------------===//

static void appendStats(std::string &S, const obs::SweepIndicatorStats &St) {
  S += "{\"n\": " + std::to_string(St.N);
  S += ", \"mean\": " + obs::renderNumber(St.Mean);
  S += ", \"stddev\": " + obs::renderNumber(St.Stddev);
  S += ", \"ci95\": " + obs::renderNumber(St.Ci95);
  S += ", \"p50\": " + obs::renderNumber(St.P50);
  S += ", \"p90\": " + obs::renderNumber(St.P90);
  S += ", \"p99\": " + obs::renderNumber(St.P99);
  S += ", \"min\": " + obs::renderNumber(St.Min);
  S += ", \"max\": " + obs::renderNumber(St.Max);
  S += "}";
}

std::string BenchRun::json() const {
  std::string S;
  S += "{\n";
  S += "  \"schema\": \"cws-bench-v1\",\n";
  S += "  \"name\": " + json::quote(Info->Name) + ",\n";
  S += "  \"description\": " + json::quote(Info->Description) + ",\n";
  S += "  \"provenance\": {\"seed\": " + std::to_string(Prov.Seed);
  S += ", \"exec_seed\": " + std::to_string(ExecSeed);
  S += ", \"config_hash\": " + json::quote(Prov.ConfigHash);
  S += ", \"scenario\": " + json::quote(Prov.ScenarioId);
  S += ", \"shards\": " + std::to_string(Prov.Shards);
  S += ", \"cli\": " + json::quote(Prov.Cli) + "},\n";
  S += "  \"reps\": " + std::to_string(Reps) + ",\n";
  S += "  \"warmup\": " + std::to_string(Warmup) + ",\n";
  S += "  \"work\": " + obs::workCountersJson(Work) + ",\n";
  S += "  \"checks\": [";
  for (size_t I = 0; I < Checks.size(); ++I) {
    if (I)
      S += ", ";
    S += "{\"what\": " + json::quote(Checks[I].What) + ", \"pass\": ";
    S += Checks[I].Pass ? "true" : "false";
    S += "}";
  }
  S += "],\n";
  S += "  \"metrics\": {";
  bool FirstMetric = true;
  for (const auto &M : Metrics) {
    if (!FirstMetric)
      S += ",";
    FirstMetric = false;
    S += "\n    " + json::quote(M.first) + ": ";
    appendStats(S, M.second);
  }
  S += Metrics.empty() ? "},\n" : "\n  },\n";
  S += "  \"profile\": " + obs::phaseRecordsJson(Profile) + "\n}\n";
  return S;
}

//===----------------------------------------------------------------------===//
// JSON reader
//===----------------------------------------------------------------------===//

/// Reads a `work` object of counters into \p Out, sorted by name.
static bool parseWork(const json::Value &Work, const std::string &Where,
                      std::vector<std::pair<std::string, uint64_t>> &Out,
                      std::string &Error) {
  if (!Work.isObject()) {
    Error = Where + "work must be an object";
    return false;
  }
  for (const auto &M : Work.members()) {
    uint64_t N = 0;
    if (!M.second.getUint(N)) {
      Error = Where + "work counter '" + M.first +
              "' must be a non-negative integer";
      return false;
    }
    Out.push_back({M.first, N});
  }
  std::sort(Out.begin(), Out.end());
  return true;
}

bool cws::bench::parseBenchJson(const std::string &Text, ParsedBench &Out,
                                std::string &Error) {
  json::Value Doc;
  if (!json::parse(Text, Doc, Error))
    return false;
  std::string Schema;
  if (!Doc.getString("schema", Schema) || Schema != "cws-bench-v1") {
    Error = "not a cws-bench-v1 document";
    return false;
  }
  if (!Doc.getString("name", Out.Name) || Out.Name.empty()) {
    Error = "missing bench name";
    return false;
  }
  Doc.getString("description", Out.Description);
  const json::Value *Prov = Doc.find("provenance");
  if (!Prov || !Prov->isObject()) {
    Error = "missing provenance object";
    return false;
  }
  obs::RunProvenance P;
  unsigned Seen = 0;
  if (!obs::readProvenance(*Prov, P, Seen, Error))
    return false;
  if (!(Seen & obs::ProvConfigHash)) {
    Error = "missing provenance config_hash";
    return false;
  }
  Out.Seed = P.Seed;
  Out.ConfigHash = P.ConfigHash;
  Out.Scenario = P.ScenarioId;
  Out.Cli = P.Cli;
  Out.Shards = P.Shards;
  Prov->getUint("exec_seed", Out.ExecSeed);
  Doc.getInt("reps", Out.Reps);
  Doc.getInt("warmup", Out.Warmup);

  if (const json::Value *Work = Doc.find("work"))
    if (!parseWork(*Work, "", Out.Work, Error))
      return false;
  if (const json::Value *Checks = Doc.find("checks")) {
    if (!Checks->isArray()) {
      Error = "checks must be an array";
      return false;
    }
    for (const json::Value &C : Checks->array()) {
      CheckOutcome O;
      if (!C.getString("what", O.What)) {
        Error = "a check needs a 'what'";
        return false;
      }
      const json::Value *Pass = C.find("pass");
      if (!Pass || !Pass->isBool()) {
        Error = "check '" + O.What + "' needs a boolean 'pass'";
        return false;
      }
      O.Pass = Pass->boolean();
      Out.Checks.push_back(O);
    }
  }
  if (const json::Value *Metrics = Doc.find("metrics")) {
    if (!Metrics->isObject()) {
      Error = "metrics must be an object";
      return false;
    }
    for (const auto &M : Metrics->members()) {
      obs::SweepIndicatorStats St;
      if (!M.second.getUint("n", St.N)) {
        Error = "metric '" + M.first + "' needs an 'n'";
        return false;
      }
      struct Field {
        const char *Name;
        double *Dst;
      } Fields[] = {{"mean", &St.Mean}, {"stddev", &St.Stddev},
                    {"ci95", &St.Ci95}, {"p50", &St.P50},
                    {"p90", &St.P90},   {"p99", &St.P99},
                    {"min", &St.Min},   {"max", &St.Max}};
      for (const Field &F : Fields)
        if (!M.second.getNumber(F.Name, *F.Dst)) {
          Error = "metric '" + M.first + "' needs a '" +
                  std::string(F.Name) + "'";
          return false;
        }
      Out.Metrics[M.first] = St;
    }
  }
  if (const json::Value *Profile = Doc.find("profile")) {
    if (!Profile->isArray()) {
      Error = "profile must be an array";
      return false;
    }
    for (const json::Value &P : Profile->array()) {
      ParsedPhase Phase;
      const json::Value *Work = P.find("work");
      if (!P.getString("name", Phase.Name) || !P.getUint("count", Phase.Count) ||
          !Work) {
        Error = "a profile phase needs a 'name', a 'count' and 'work'";
        return false;
      }
      if (!parseWork(*Work, "phase '" + Phase.Name + "': ", Phase.Work, Error))
        return false;
      Out.Profile.push_back(std::move(Phase));
    }
    std::sort(Out.Profile.begin(), Out.Profile.end(),
              [](const ParsedPhase &A, const ParsedPhase &B) {
                return A.Name < B.Name;
              });
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Comparison
//===----------------------------------------------------------------------===//

const char *cws::bench::benchVerdictName(BenchVerdict V) {
  switch (V) {
  case BenchVerdict::Identical:
    return "identical";
  case BenchVerdict::Compatible:
    return "compatible";
  case BenchVerdict::Regressed:
    return "REGRESSED";
  case BenchVerdict::Refused:
    return "refused";
  }
  CWS_UNREACHABLE("unknown bench verdict");
}

/// The ratchet's noise test for a metric that moved: the sample counts
/// agree (a repetition-count change is never noise), the means' 95%
/// CIs overlap, and p50/p90/p99 each shift by at most 10% of the larger
/// magnitude. NaN (n/a) matches only NaN.
static bool withinNoise(const obs::SweepIndicatorStats &A,
                        const obs::SweepIndicatorStats &B) {
  auto Near = [](double X, double Y, double Slack) {
    return X == Y || (std::isnan(X) && std::isnan(Y)) ||
           std::fabs(X - Y) <= Slack;
  };
  auto QuantileNear = [&Near](double X, double Y) {
    return Near(X, Y, 0.10 * std::max(std::fabs(X), std::fabs(Y)));
  };
  return A.N == B.N && Near(A.Mean, B.Mean, A.Ci95 + B.Ci95) &&
         QuantileNear(A.P50, B.P50) && QuantileNear(A.P90, B.P90) &&
         QuantileNear(A.P99, B.P99);
}

static const std::string &nameOf(const std::pair<std::string, uint64_t> &W) {
  return W.first;
}
static const std::string &nameOf(const ParsedPhase &P) { return P.Name; }

/// Walks two name-sorted lists in step and calls \p Dropped, \p Appeared
/// or \p Both for each name.
template <typename T, typename DroppedFn, typename AppearedFn,
          typename BothFn>
static void mergeByName(const std::vector<T> &Base, const std::vector<T> &New,
                        DroppedFn Dropped, AppearedFn Appeared, BothFn Both) {
  size_t I = 0, J = 0;
  while (I < Base.size() || J < New.size()) {
    if (J >= New.size() ||
        (I < Base.size() && nameOf(Base[I]) < nameOf(New[J])))
      Dropped(Base[I++]);
    else if (I >= Base.size() || nameOf(New[J]) < nameOf(Base[I]))
      Appeared(New[J++]);
    else
      Both(Base[I++], New[J++]);
  }
}

/// Adds a finding to \p Out for each work counter that dropped, appeared
/// or changed; \p Prefix names where the counters belong.
static void compareWork(
    const std::vector<std::pair<std::string, uint64_t>> &Base,
    const std::vector<std::pair<std::string, uint64_t>> &New,
    const std::string &Prefix, std::vector<std::string> &Out) {
  using Counter = std::pair<std::string, uint64_t>;
  mergeByName(
      Base, New,
      [&](const Counter &B) {
        Out.push_back(Prefix + "work counter dropped: " + B.first + " (" +
                      std::to_string(B.second) + ")");
      },
      [&](const Counter &N) {
        Out.push_back(Prefix + "work counter appeared: " + N.first + " (" +
                      std::to_string(N.second) + ")");
      },
      [&](const Counter &B, const Counter &N) {
        if (B.second != N.second)
          Out.push_back(Prefix + "work counter " + B.first + ": " +
                        std::to_string(B.second) + " -> " +
                        std::to_string(N.second));
      });
}

BenchCompareResult cws::bench::compareBench(const ParsedBench &Base,
                                            const ParsedBench &New) {
  BenchCompareResult R;

  // Identity first: two runs of different configurations must not be
  // compared at all — the fail-loudly rule sweep pooling applies.
  auto Identity = [&R](const std::string &Field, const std::string &A,
                       const std::string &B) {
    if (A != B)
      R.Mismatched.push_back(Field + ": '" + A + "' vs '" + B + "'");
  };
  Identity("name", Base.Name, New.Name);
  Identity("config_hash", Base.ConfigHash, New.ConfigHash);
  Identity("scenario", Base.Scenario, New.Scenario);
  Identity("seed", std::to_string(Base.Seed), std::to_string(New.Seed));
  Identity("exec_seed", std::to_string(Base.ExecSeed),
           std::to_string(New.ExecSeed));
  if (!R.Mismatched.empty()) {
    R.Verdict = BenchVerdict::Refused;
    return R;
  }

  // Checks gate: the new run must pass everything, and must not drop
  // an invariant the baseline recorded.
  for (const CheckOutcome &C : New.Checks)
    if (!C.Pass)
      R.Gated.push_back("check failed: " + C.What);
  for (const CheckOutcome &C : Base.Checks) {
    bool Found = false;
    for (const CheckOutcome &N : New.Checks)
      Found = Found || N.What == C.What;
    if (!Found)
      R.Gated.push_back("check dropped: " + C.What);
  }

  // Work counters gate exactly: they are deterministic quantities of
  // the measured workload, the only signal a shared 4-vCPU host can
  // ratchet.
  compareWork(Base.Work, New.Work, "", R.Gated);

  // So are the profile's phase counts and work counters, for runs of the
  // same reps and warmup; runs of other sizes report them only.
  std::vector<std::string> &Profile =
      Base.Reps == New.Reps && Base.Warmup == New.Warmup ? R.Gated
                                                         : R.Advisory;
  mergeByName(
      Base.Profile, New.Profile,
      [&](const ParsedPhase &B) {
        Profile.push_back("phase dropped: " + B.Name + " (count " +
                          std::to_string(B.Count) + ")");
      },
      [&](const ParsedPhase &N) {
        Profile.push_back("phase appeared: " + N.Name + " (count " +
                          std::to_string(N.Count) + ")");
      },
      [&](const ParsedPhase &B, const ParsedPhase &N) {
        if (B.Count != N.Count)
          Profile.push_back("phase " + B.Name + " count: " +
                            std::to_string(B.Count) + " -> " +
                            std::to_string(N.Count));
        compareWork(B.Work, N.Work, "phase " + B.Name + " ", Profile);
      });

  // Metrics are measured distributions; shifts are reported but never
  // gate — wall time on a shared CI host is weather, not signal.
  bool MetricsMoved = false;
  for (const auto &M : Base.Metrics) {
    auto It = New.Metrics.find(M.first);
    if (It == New.Metrics.end()) {
      R.Advisory.push_back("metric dropped: " + M.first);
      MetricsMoved = true;
      continue;
    }
    if (obs::sameIndicatorStats(M.second, It->second))
      continue;
    MetricsMoved = true;
    if (!withinNoise(M.second, It->second))
      R.Advisory.push_back("metric " + M.first + ": " +
                           obs::renderIndicatorStats(M.second) + " -> " +
                           obs::renderIndicatorStats(It->second) +
                           " outside the CI-overlap / quantile-shift "
                           "tolerance");
  }
  for (const auto &M : New.Metrics)
    if (!Base.Metrics.count(M.first)) {
      R.Advisory.push_back("metric appeared: " + M.first);
      MetricsMoved = true;
    }

  if (!R.Gated.empty())
    R.Verdict = BenchVerdict::Regressed;
  else if (MetricsMoved || !R.Advisory.empty())
    R.Verdict = BenchVerdict::Compatible;
  else
    R.Verdict = BenchVerdict::Identical;
  return R;
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

std::string cws::bench::renderBenchRun(const BenchRun &Run) {
  std::ostringstream Out;
  Out << "bench " << Run.Info->Name << ": " << Run.Info->Description << "\n";
  Out << "  reps " << Run.Reps << " (+" << Run.Warmup << " warmup), seed "
      << Run.Prov.Seed << ", exec seed " << Run.ExecSeed << ", shards "
      << Run.Prov.Shards << ", config " << Run.Prov.ConfigHash << "\n";
  if (!Run.Work.empty()) {
    Table W({"work counter", "value"});
    for (const auto &P : Run.Work)
      W.addRow({P.first, std::to_string(P.second)});
    W.print(Out);
  }
  if (!Run.Metrics.empty()) {
    Table M({"metric", "n", "mean", "ci95", "p50", "p99"});
    for (const auto &P : Run.Metrics)
      M.addRow({P.first, std::to_string(P.second.N),
                Table::num(P.second.Mean, 2), Table::num(P.second.Ci95, 2),
                Table::num(P.second.P50, 2), Table::num(P.second.P99, 2)});
    M.print(Out);
  }
  for (const CheckOutcome &C : Run.Checks)
    Out << "  check " << (C.Pass ? "ok  " : "FAIL") << "  " << C.What << "\n";
  Out << (Run.passed() ? "  PASS" : "  FAIL") << "\n";
  return Out.str();
}

std::string cws::bench::renderBenchCompare(const std::string &Name,
                                           const BenchCompareResult &R) {
  std::ostringstream Out;
  Out << "against baseline, " << Name << ": " << benchVerdictName(R.Verdict)
      << "\n";
  for (const std::string &F : R.Mismatched)
    Out << "  refused, identity mismatch: " << F << "\n";
  for (const std::string &F : R.Gated)
    Out << "  gated: " << F << "\n";
  for (const std::string &F : R.Advisory)
    Out << "  advisory: " << F << "\n";
  return Out.str();
}

//===----------------------------------------------------------------------===//
// CLI
//===----------------------------------------------------------------------===//

int cws::bench::benchMain(int Argc, char **Argv) {
  int64_t List = 0;
  int64_t Reps = 0;
  int64_t Warmup = -1;
  int64_t CompareOnly = 0;
  std::string Filter;
  std::string Out;
  std::string Against;
  Flags F;
  F.addInt("list", &List, "list registered benches and exit (0/1)",
           /*AtLeast=*/0, /*AtMost=*/1);
  F.addString("filter", &Filter,
              "run only benches whose name contains this substring");
  F.addInt("reps", &Reps,
           "measured repetitions per bench (0 = bench default)",
           /*AtLeast=*/0);
  F.addInt("warmup", &Warmup,
           "discarded warmup repetitions (-1 = bench default)",
           /*AtLeast=*/-1);
  F.addString("out", &Out,
              "directory to write one BENCH_<name>.json per bench into");
  F.addString("against", &Against,
              "baseline directory of BENCH_<name>.json files to ratchet "
              "against (work counters gate, wall time is advisory)");
  F.addInt("compare-only", &CompareOnly,
           "with --against and --out: compare the files already in "
           "--out instead of running the benches (0/1)",
           /*AtLeast=*/0, /*AtMost=*/1);
  if (!F.parse(Argc, Argv))
    return 0;

  std::vector<const BenchInfo *> Selected;
  for (const BenchInfo *B : BenchRegistry::global().all())
    if (Filter.empty() || std::string(B->Name).find(Filter) !=
                              std::string::npos)
      Selected.push_back(B);

  if (List) {
    Table T({"bench", "reps", "warmup", "description"});
    for (const BenchInfo *B : Selected)
      T.addRow({B->Name, std::to_string(B->DefaultReps),
                std::to_string(B->DefaultWarmup), B->Description});
    T.print(std::cout);
    return 0;
  }
  if (Selected.empty()) {
    std::fprintf(stderr, "cws-bench: no bench matches filter '%s'\n",
                 Filter.c_str());
    return 2;
  }
  if (CompareOnly && (Against.empty() || Out.empty())) {
    std::fprintf(stderr,
                 "cws-bench: --compare-only needs --against and --out\n");
    return 2;
  }

  std::string Cli = obs::cliStringOf(Argc, Argv);
  if (!Out.empty() && !CompareOnly) {
    std::error_code Ec;
    std::filesystem::create_directories(Out, Ec);
    if (Ec) {
      std::fprintf(stderr, "cws-bench: cannot create '%s': %s\n",
                   Out.c_str(), Ec.message().c_str());
      return 2;
    }
  }

  int Exit = 0;
  auto Escalate = [&Exit](int Code) { Exit = std::max(Exit, Code); };
  for (const BenchInfo *B : Selected) {
    ParsedBench NewDoc;
    std::string NewText;
    if (CompareOnly) {
      std::string Path = Out + "/BENCH_" + B->Name + ".json";
      if (!readFile(Path, NewText)) {
        std::fprintf(stderr, "cws-bench: cannot read '%s'\n", Path.c_str());
        return 2;
      }
    } else {
      BenchRun Run = runBench(*B, static_cast<int>(Reps),
                              static_cast<int>(Warmup), Cli);
      std::cout << renderBenchRun(Run) << "\n";
      if (!Run.passed())
        Escalate(1);
      NewText = Run.json();
      if (!Out.empty()) {
        std::string Path = Out + "/BENCH_" + std::string(B->Name) + ".json";
        if (!writeTextFile(Path, NewText)) {
          std::fprintf(stderr, "cws-bench: cannot write '%s'\n",
                       Path.c_str());
          return 2;
        }
      }
    }

    if (Against.empty())
      continue;
    // Every run round-trips through the file format before comparison,
    // so what the ratchet gates is exactly what the artifact records.
    std::string Error;
    if (!parseBenchJson(NewText, NewDoc, Error)) {
      std::fprintf(stderr, "cws-bench: %s: %s\n", B->Name, Error.c_str());
      return 2;
    }
    std::string BasePath = Against + "/BENCH_" + B->Name + ".json";
    std::string BaseText;
    if (!readFile(BasePath, BaseText)) {
      // A bench without a baseline is ungated; refuse rather than let
      // it pass unnoticed.
      std::cout << "against baseline, " << B->Name
                << ": refused, no baseline at " << BasePath
                << " (run tools/update-baselines.sh)\n\n";
      Escalate(2);
      continue;
    }
    ParsedBench BaseDoc;
    if (!parseBenchJson(BaseText, BaseDoc, Error)) {
      std::fprintf(stderr, "cws-bench: %s: %s\n", BasePath.c_str(),
                   Error.c_str());
      return 2;
    }
    BenchCompareResult R = compareBench(BaseDoc, NewDoc);
    std::cout << renderBenchCompare(B->Name, R) << "\n";
    if (R.Verdict == BenchVerdict::Refused)
      Escalate(2);
    else if (R.Verdict == BenchVerdict::Regressed)
      Escalate(1);
  }
  return Exit;
}

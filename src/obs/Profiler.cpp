//===-- obs/Profiler.cpp - Hierarchical phase profiler --------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "obs/Profiler.h"

#include "obs/Metrics.h"
#include "support/File.h"
#include "support/Json.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

namespace cws {
namespace obs {

namespace {

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-scope duration buckets (microseconds): sub-microsecond guards up
/// to full-run phases. Shared by every phase so merged histograms stay
/// merge-compatible.
const std::vector<double> &phaseBounds() {
  static const std::vector<double> Bounds = {
      1,    2,    5,     10,    25,    50,     100,    250,    500,
      1000, 2500, 5000,  10000, 25000, 50000,  100000, 250000, 500000,
      1000000};
  return Bounds;
}

} // namespace

std::string
workCountersJson(const std::vector<std::pair<std::string, uint64_t>> &Work) {
  std::string Out = "{";
  for (size_t I = 0; I < Work.size(); ++I)
    Out += (I ? ", " : "") + json::quote(Work[I].first) + ": " +
           std::to_string(Work[I].second);
  return Out + "}";
}

std::string phaseRecordsJson(const std::vector<PhaseStats> &Phases) {
  std::string Out = "[";
  for (size_t I = 0; I < Phases.size(); ++I) {
    const PhaseStats &S = Phases[I];
    Out += I ? ",\n    " : "\n    ";
    Out += "{\"name\": " + json::quote(S.Name);
    Out += ", \"count\": " + std::to_string(S.Count);
    Out += ", \"total_us\": " + renderNumber(S.TotalUs);
    Out += ", \"self_us\": " + renderNumber(S.SelfUs);
    Out += ", \"p50_us\": " + renderNumber(S.P50Us);
    Out += ", \"p99_us\": " + renderNumber(S.P99Us);
    Out += ", \"work\": " + workCountersJson(S.Work) + "}";
  }
  return Out + (Phases.empty() ? "]" : "\n  ]");
}

const uint64_t *PhaseStats::work(const std::string &Counter) const {
  for (const auto &W : Work)
    if (W.first == Counter)
      return &W.second;
  return nullptr;
}

Profiler::Profiler() = default;
Profiler::~Profiler() = default;

Profiler &Profiler::global() {
  static Profiler P;
  return P;
}

Profiler::ThreadState &Profiler::threadState() {
  // One cached state per (thread, profiler); re-resolving through the
  // registry map keeps a second instance (tests) correct, just slower.
  thread_local Profiler *CachedOwner = nullptr;
  thread_local ThreadState *CachedTS = nullptr;
  if (CachedOwner == this && CachedTS)
    return *CachedTS;
  std::lock_guard<std::mutex> Lock(Mu);
  // Thread states are never removed, so scanning for a state this
  // thread registered earlier is bounded by the peak thread count.
  thread_local std::vector<std::pair<Profiler *, ThreadState *>> Mine;
  for (const auto &Entry : Mine)
    if (Entry.first == this) {
      CachedOwner = this;
      CachedTS = Entry.second;
      return *CachedTS;
    }
  Threads.emplace_back(new ThreadState());
  ThreadState *TS = Threads.back().get();
  Mine.emplace_back(this, TS);
  CachedOwner = this;
  CachedTS = TS;
  return *TS;
}

void Profiler::reset() {
  disable();
  std::lock_guard<std::mutex> Lock(Mu);
  for (auto &TS : Threads) {
    std::lock_guard<std::mutex> TLock(TS->Mu);
    TS->Phases.clear();
  }
  Prov = RunProvenance();
}

void Profiler::setProvenance(const RunProvenance &P) {
  std::lock_guard<std::mutex> Lock(Mu);
  Prov = P;
}

std::vector<PhaseStats> Profiler::snapshot() const {
  // Merge per-thread accumulators into one per-phase view. Counts,
  // work and histogram buckets add; the result depends only on what
  // ran, never on which thread ran it.
  struct Merged {
    uint64_t Count = 0;
    double TotalUs = 0.0;
    double ChildUs = 0.0;
    std::unique_ptr<Histogram> DurUs;
    std::map<std::string, uint64_t> Work;
  };
  std::map<std::string, Merged> ByName;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    for (const auto &TS : Threads) {
      std::lock_guard<std::mutex> TLock(TS->Mu);
      for (const auto &Entry : TS->Phases) {
        Merged &M = ByName[Entry.first];
        const PhaseAccum &A = Entry.second;
        M.Count += A.Count;
        M.TotalUs += A.TotalUs;
        M.ChildUs += A.ChildUs;
        if (A.DurUs) {
          if (!M.DurUs)
            M.DurUs.reset(new Histogram(phaseBounds()));
          M.DurUs->merge(*A.DurUs);
        }
        for (const auto &W : A.Work)
          M.Work[W.first] += W.second;
      }
    }
  }

  std::vector<PhaseStats> Out;
  Out.reserve(ByName.size());
  for (const auto &Entry : ByName) {
    const Merged &M = Entry.second;
    PhaseStats S;
    S.Name = Entry.first;
    S.Count = M.Count;
    S.TotalUs = M.TotalUs;
    S.SelfUs = std::max(0.0, M.TotalUs - M.ChildUs);
    S.P50Us = M.Count && M.DurUs ? M.DurUs->quantile(0.5) : 0.0;
    S.P99Us = M.Count && M.DurUs ? M.DurUs->quantile(0.99) : 0.0;
    S.Work.assign(M.Work.begin(), M.Work.end());
    Out.push_back(std::move(S));
  }
  return Out;
}

std::string Profiler::json() const {
  RunProvenance P;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    P = Prov;
  }
  std::vector<PhaseStats> Phases = snapshot();

  std::string Out = "{\n  \"schema\": \"cws-profile-v1\"";
  if (P.valid()) {
    Out += ",\n  \"provenance\": {\"seed\": " + std::to_string(P.Seed);
    Out += ", \"config_hash\": " + json::quote(P.ConfigHash);
    Out += ", \"scenario\": " + json::quote(P.ScenarioId);
    if (P.Shards > 0)
      Out += ", \"shards\": " + std::to_string(P.Shards);
    Out += ", \"cli\": " + json::quote(P.Cli) + "}";
  }
  Out += ",\n  \"phases\": " + phaseRecordsJson(Phases) + "\n}\n";
  return Out;
}

bool Profiler::writeJson(const std::string &Path) const {
  return writeTextFile(Path, json());
}

std::string Profiler::chromeTraceEvents() const {
  std::vector<PhaseStats> Phases = snapshot();
  if (Phases.empty())
    return "";
  // Summary slices on a dedicated pid (the tracer's spans are pid 1,
  // the sim-time lane pid 2): one complete event per phase, laid end
  // to end so the lane reads as a breakdown bar.
  std::string Out = "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":3,"
                    "\"tid\":0,\"ts\":0,"
                    "\"args\":{\"name\":\"phase profile (merged)\"}}";
  double Ts = 0.0;
  for (const PhaseStats &S : Phases) {
    Out += ",{\"name\":" + json::quote(S.Name) +
           ",\"cat\":\"phase\",\"ph\":\"X\",\"pid\":3,\"tid\":0,\"ts\":" +
           renderNumber(Ts) + ",\"dur\":" + renderNumber(S.TotalUs) +
           ",\"args\":{\"count\":" + std::to_string(S.Count) +
           ",\"self_us\":" + renderNumber(S.SelfUs) + "}}";
    Ts += S.TotalUs;
  }
  return Out;
}

bool parseProfileJson(const std::string &Text, ParsedProfile &Out,
                      std::string &Error) {
  Out = ParsedProfile();
  json::Value Root;
  if (!json::parse(Text, Root, Error))
    return false;
  if (!Root.isObject()) {
    Error = "profile: top level is not an object";
    return false;
  }
  std::string Schema;
  if (!Root.getString("schema", Schema) || Schema != "cws-profile-v1") {
    Error = "profile: missing or unknown schema (want cws-profile-v1)";
    return false;
  }
  if (const json::Value *P = Root.find("provenance")) {
    if (!P->isObject()) {
      Error = "profile: provenance is not an object";
      return false;
    }
    unsigned Seen = 0;
    if (!readProvenance(*P, Out.Prov, Seen, Error)) {
      Error = "profile: " + Error;
      return false;
    }
    Out.Prov.Stamped = true;
  }
  const json::Value *Phases = Root.find("phases");
  if (!Phases || !Phases->isArray()) {
    Error = "profile: missing phases array";
    return false;
  }
  for (const json::Value &P : Phases->array()) {
    PhaseStats S;
    if (!P.isObject() || !P.getString("name", S.Name)) {
      Error = "profile: phase record without a name";
      return false;
    }
    P.getUint("count", S.Count);
    P.getNumber("total_us", S.TotalUs);
    P.getNumber("self_us", S.SelfUs);
    P.getNumber("p50_us", S.P50Us);
    P.getNumber("p99_us", S.P99Us);
    if (const json::Value *W = P.find("work")) {
      if (!W->isObject()) {
        Error = "profile: work of phase '" + S.Name + "' is not an object";
        return false;
      }
      for (const auto &Member : W->members()) {
        uint64_t N = 0;
        if (!Member.second.getUint(N)) {
          Error = "profile: work counter '" + Member.first +
                  "' is not a non-negative integer";
          return false;
        }
        S.Work.emplace_back(Member.first, N);
      }
      std::sort(S.Work.begin(), S.Work.end());
    }
    Out.Phases.push_back(std::move(S));
  }
  std::sort(Out.Phases.begin(), Out.Phases.end(),
            [](const PhaseStats &A, const PhaseStats &B) {
              return A.Name < B.Name;
            });
  return true;
}

#if CWS_OBS_ENABLED

PhaseScope::PhaseScope(const char *Name) : Name(Name) {
  Profiler &P = Profiler::global();
  if (!P.enabled())
    return; // TS stays null; the destructor is a no-op.
  TS = &P.threadState();
  Parent = TS->Open;
  TS->Open = this;
  StartNs = nowNs();
}

PhaseScope::~PhaseScope() {
  if (!TS)
    return;
  double DurUs = static_cast<double>(nowNs() - StartNs) / 1000.0;
  TS->Open = Parent;
  // Self-time is a same-thread notion: a parent only absorbs child
  // time its own thread spent (cross-thread fan-out shows up as the
  // child phase's total, not as the parent's child time).
  if (Parent && Parent->TS == TS)
    Parent->ChildUs += DurUs;
  std::lock_guard<std::mutex> Lock(TS->Mu);
  Profiler::PhaseAccum &A = TS->Phases[Name];
  A.Count += 1;
  A.TotalUs += DurUs;
  A.ChildUs += ChildUs;
  if (!A.DurUs)
    A.DurUs.reset(new Histogram(phaseBounds()));
  A.DurUs->observe(DurUs);
}

void PhaseScope::work(const char *Counter, uint64_t N) {
  if (!TS)
    return;
  std::lock_guard<std::mutex> Lock(TS->Mu);
  TS->Phases[Name].Work[Counter] += N;
}

#endif // CWS_OBS_ENABLED

void publishProfilerStats(const Profiler &P, Registry &R) {
  for (const PhaseStats &S : P.snapshot()) {
    std::string Label = "{phase=\"" + escapeLabelValue(S.Name) + "\"}";
    R.gauge("cws_phase_count" + Label,
            "completed profiler scopes of the phase")
        .set(static_cast<int64_t>(S.Count));
    R.realGauge("cws_phase_total_us" + Label,
                "wall microseconds inside the phase (children included)")
        .set(S.TotalUs);
    R.realGauge("cws_phase_self_us" + Label,
                "wall microseconds inside the phase (children excluded)")
        .set(S.SelfUs);
    for (const auto &W : S.Work)
      R.gauge("cws_phase_work{phase=\"" + escapeLabelValue(S.Name) +
                  "\",counter=\"" + escapeLabelValue(W.first) + "\"}",
              "deterministic work units attributed to the phase")
          .set(static_cast<int64_t>(W.second));
  }
}

} // namespace obs
} // namespace cws

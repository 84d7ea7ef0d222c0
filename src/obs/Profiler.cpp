//===-- obs/Profiler.cpp - Hierarchical phase profiler --------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "obs/Profiler.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/File.h"
#include "support/Json.h"

#include <algorithm>
#include <chrono>

namespace cws {
namespace obs {

namespace {

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-scope duration buckets (microseconds): sub-microsecond guards up
/// to full-run phases.
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

PhaseAccum::PhaseAccum() : DurUs(phaseBounds()) {}

Profiler &Profiler::global() {
  static Profiler P;
  return P;
}

PhaseAccum &Profiler::phase(const char *Name) {
  for (const auto &[Address, Accum] : ByAddress)
    if (Address == Name)
      return *Accum;
  PhaseAccum &Accum = Phases.try_emplace(Name).first->second;
  ByAddress.emplace_back(Name, &Accum);
  return Accum;
}

void Profiler::reset() {
  disable();
  // Zeroed in place: `ByAddress` and open spans point at them.
  for (auto &Entry : Phases)
    Entry.second = PhaseAccum();
  Prov = RunProvenance();
}

void Profiler::setProvenance(const RunProvenance &P) { Prov = P; }

std::vector<PhaseStats> Profiler::snapshot() const {
  std::vector<PhaseStats> Out;
  for (const auto &Entry : Phases) {
    const PhaseAccum &A = Entry.second;
    // An accumulator outlives reset(), and a site reached while the
    // profiler was disabled creates one; neither has anything to show.
    if (A.Count == 0 && A.Work.empty())
      continue;
    PhaseStats S;
    S.Name = Entry.first;
    S.Count = A.Count;
    S.TotalUs = A.TotalUs;
    S.SelfUs = std::max(0.0, A.TotalUs - A.ChildUs);
    S.P50Us = A.Count ? A.DurUs.quantile(0.5) : 0.0;
    S.P99Us = A.Count ? A.DurUs.quantile(0.99) : 0.0;
    S.Work = A.Work;
    std::sort(S.Work.begin(), S.Work.end());
    Out.push_back(std::move(S));
  }
  return Out;
}

std::string Profiler::json() const {
  std::string Out = "{\n  \"schema\": \"cws-profile-v1\"";
  if (Prov.valid()) {
    Out += ",\n  \"provenance\": {\"seed\": " + std::to_string(Prov.Seed);
    Out += ", \"config_hash\": " + json::quote(Prov.ConfigHash);
    Out += ", \"scenario\": " + json::quote(Prov.ScenarioId);
    if (Prov.Shards > 0)
      Out += ", \"shards\": " + std::to_string(Prov.Shards);
    Out += ", \"cli\": " + json::quote(Prov.Cli) + "}";
  }
  Out += ",\n  \"phases\": " + phaseRecordsJson(snapshot()) + "\n}\n";
  return Out;
}

bool Profiler::writeJson(const std::string &Path) const {
  return writeTextFile(Path, json());
}

std::string Profiler::chromeTraceEvents() const {
  std::vector<PhaseStats> Stats = snapshot();
  if (Stats.empty())
    return "";
  // Summary slices on a dedicated pid (the tracer's spans are pid 1,
  // the sim-time lane pid 2): one complete event per phase, laid end
  // to end so the lane reads as a breakdown bar.
  std::string Out = "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":3,"
                    "\"tid\":0,\"ts\":0,"
                    "\"args\":{\"name\":\"phase profile (merged)\"}}";
  double Ts = 0.0;
  for (const PhaseStats &S : Stats) {
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

void Span::openPhase() {
  Profiler &P = Profiler::global();
  Accum = &P.phase(Name);
  Parent = P.Open;
  P.Open = this;
  StartNs = nowNs();
}

void Span::closePhase() {
  double DurUs = static_cast<double>(nowNs() - StartNs) / 1000.0;
  Profiler::global().Open = Parent;
  if (Parent)
    Parent->ChildUs += DurUs;
  Accum->Count += 1;
  Accum->TotalUs += DurUs;
  Accum->ChildUs += ChildUs;
  Accum->DurUs.observe(DurUs);
}

void Span::addWork(const char *Counter, uint64_t N) {
  for (auto &W : Accum->Work)
    if (W.first == Counter) {
      W.second += N;
      return;
    }
  Accum->Work.emplace_back(Counter, N);
}

} // namespace obs
} // namespace cws

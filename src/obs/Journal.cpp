//===-- obs/Journal.cpp - Per-job decision journal ------------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "obs/Journal.h"
#include "obs/Metrics.h"
#include "support/Check.h"
#include "support/File.h"
#include "support/Json.h"
#include "support/Text.h"

#include <algorithm>

using namespace cws;
using namespace cws::obs;

static const char *const KindNames[JournalKindCount] = {
    "arrival",        "admission",      "variant",        "collision",
    "env.change",     "invalidate",     "shift",          "reallocate",
    "repair.attempt", "repair.stage",   "dispatch",       "commit.attempt",
    "commit",         "reject",         "execution",      "complete",
    "note",
};

const char *cws::obs::journalKindName(JournalKind Kind) {
  auto I = static_cast<size_t>(Kind);
  CWS_CHECK(I < JournalKindCount, "unknown journal kind");
  return KindNames[I];
}

bool cws::obs::journalKindFromName(const std::string &Name,
                                   JournalKind &Out) {
  for (size_t I = 0; I < JournalKindCount; ++I)
    if (Name == KindNames[I]) {
      Out = static_cast<JournalKind>(I);
      return true;
    }
  return false;
}

Journal &Journal::global() {
  static Journal J;
  return J;
}

void Journal::enable(size_t Capacity) {
  CWS_CHECK(Capacity > 0, "journal needs a non-empty ring");
  Events.reset(Capacity);
  LastEnvChangeId = 0;
  LastOf.clear();
  FlowOf.clear();
  Prov = RunProvenance{};
  On = true;
}

void Journal::reset() {
  disable();
  Events.reset(0);
  LastEnvChangeId = 0;
  LastOf.clear();
  FlowOf.clear();
  Prov = RunProvenance{};
}

namespace {
/// The journal appends are dropped from, if any.
Journal *Discarding = nullptr;
} // namespace

JournalDiscardScope::JournalDiscardScope(Journal &J) : Prev(Discarding) {
  Discarding = &J;
}

JournalDiscardScope::~JournalDiscardScope() { Discarding = Prev; }

uint64_t Journal::append(JournalKind Kind, int64_t JobId, int64_t At,
                         std::initializer_list<JournalArg> Args,
                         const char *Detail, int FlowId, uint64_t Trigger) {
  if (!enabled() || Discarding == this)
    return 0;
  JournalEvent &E = Events.push();
  E = JournalEvent{};
  E.Id = Events.recorded();
  E.Kind = Kind;
  E.JobId = JobId;
  E.At = At;
  E.Detail = Detail;
  for (const JournalArg &A : Args) {
    if (E.ArgCount >= JournalEvent::MaxArgs)
      break;
    E.Args[E.ArgCount++] = A;
  }
  if (JobId >= 0) {
    auto Last = LastOf.find(JobId);
    E.Cause = Last == LastOf.end() ? 0 : Last->second;
    LastOf[JobId] = E.Id;
    if (FlowId >= 0)
      FlowOf[JobId] = FlowId;
    else if (auto F = FlowOf.find(JobId); F != FlowOf.end())
      FlowId = F->second;
  }
  E.FlowId = FlowId;
  // Invalidations and reallocations are consequences of environment
  // dynamics: attribute them to the latest change unless the caller
  // knows a more precise trigger.
  if (Trigger == 0 &&
      (Kind == JournalKind::Invalidate || Kind == JournalKind::Reallocate))
    Trigger = LastEnvChangeId;
  E.Trigger = Trigger;
  if (Kind == JournalKind::EnvChange)
    LastEnvChangeId = E.Id;
  return E.Id;
}

std::string Journal::jsonl() const {
  auto Int = [](int64_t V) { return std::to_string(V); };
  std::string Out = "{\"kind\":\"journal.meta\",\"schema\":1,\"recorded\":" +
                    Int(static_cast<int64_t>(recorded())) +
                    ",\"dropped\":" + Int(static_cast<int64_t>(dropped()));
  if (Prov.Stamped) {
    Out += ",\"seed\":" + Int(static_cast<int64_t>(Prov.Seed)) +
           ",\"config_hash\":" + json::quote(Prov.ConfigHash) +
           ",\"scenario\":" + json::quote(Prov.ScenarioId);
    if (Prov.Shards > 0)
      Out += ",\"shards\":" + Int(Prov.Shards);
    Out += ",\"cli\":" + json::quote(Prov.Cli);
  }
  Out += "}\n";
  for (const JournalEvent &E : snapshot()) {
    Out += "{\"id\":" + Int(static_cast<int64_t>(E.Id)) +
           ",\"kind\":" + json::quote(journalKindName(E.Kind)) +
           ",\"tick\":" + Int(E.At);
    if (E.JobId >= 0)
      Out += ",\"job\":" + Int(E.JobId);
    if (E.FlowId >= 0)
      Out += ",\"flow\":" + Int(E.FlowId);
    if (E.Cause != 0)
      Out += ",\"cause\":" + Int(static_cast<int64_t>(E.Cause));
    if (E.Trigger != 0)
      Out += ",\"trigger\":" + Int(static_cast<int64_t>(E.Trigger));
    if (E.Detail)
      Out += ",\"detail\":" + json::quote(E.Detail);
    if (E.ArgCount > 0) {
      Out += ",\"args\":{";
      for (uint8_t I = 0; I < E.ArgCount; ++I) {
        if (I)
          Out += ",";
        Out += json::quote(E.Args[I].Key ? E.Args[I].Key : "") + ":" +
               Int(E.Args[I].Value);
      }
      Out += "}";
    }
    Out += "}\n";
  }
  return Out;
}

bool Journal::writeJsonl(const std::string &Path) const {
  return writeTextFile(Path, jsonl());
}

void cws::obs::publishJournalStats(Registry &R) {
  const Journal &J = Journal::global();
  R.gauge("cws_journal_recorded_total",
          "journal events appended since enable()")
      .set(static_cast<int64_t>(J.recorded()));
  R.gauge("cws_journal_dropped_total",
          "journal events lost to ring wraparound")
      .set(static_cast<int64_t>(J.dropped()));
}

//===----------------------------------------------------------------------===//
// JSONL parsing
//===----------------------------------------------------------------------===//

const int64_t *ParsedJournalEvent::arg(const std::string &Key) const {
  for (const auto &A : Args)
    if (A.first == Key)
      return &A.second;
  return nullptr;
}

const ParsedJournalEvent *ParsedJournal::byId(uint64_t Id) const {
  size_t Lo = 0, Hi = Events.size();
  while (Lo < Hi) {
    size_t Mid = Lo + (Hi - Lo) / 2;
    if (Events[Mid].Id < Id)
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  if (Lo < Events.size() && Events[Lo].Id == Id)
    return &Events[Lo];
  return nullptr;
}

namespace {
/// Parses one journal line: a JSON object whose members are integers,
/// except the `kind` / `detail` / provenance strings and the `args`
/// object of integers. Unknown members are rejected, so
/// `cws-explain --summary` can vouch for the schema.
bool parseLine(const std::string &Line, ParsedJournal &Out,
               ParsedJournalEvent &E, bool &IsMeta, std::string &Error) {
  json::Value Obj;
  if (!json::parse(Line, Obj, Error))
    return false;
  if (!Obj.isObject()) {
    Error = "expected '{'";
    return false;
  }
  int64_t Id = 0, Cause = 0, Trigger = 0;
  int64_t Schema = -1, Recorded = -1, Dropped = -1;
  bool SawId = false, SawKind = false, SawTick = false;
  struct IntField {
    const char *Key;
    int64_t *Dst;
    bool *Seen;
  } IntFields[] = {{"id", &Id, &SawId},
                   {"cause", &Cause, nullptr},
                   {"trigger", &Trigger, nullptr},
                   {"job", &E.JobId, nullptr},
                   {"flow", &E.FlowId, nullptr},
                   {"tick", &E.At, &SawTick},
                   {"schema", &Schema, nullptr},
                   {"recorded", &Recorded, nullptr},
                   {"dropped", &Dropped, nullptr}};
  for (const auto &[Key, V] : Obj.members()) {
    if (Key == "kind" || Key == "detail") {
      if (!V.isString()) {
        Error = "expected string for '" + Key + "'";
        return false;
      }
      if (Key == "kind") {
        E.Kind = V.text();
        SawKind = true;
      } else {
        E.Detail = V.text();
      }
      continue;
    }
    if (isProvenanceKey(Key))
      continue; // Read below, on meta and event lines alike.
    if (Key == "args") {
      if (!V.isObject()) {
        Error = "expected args object";
        return false;
      }
      for (const auto &[ArgKey, ArgValue] : V.members()) {
        int64_t X;
        if (!ArgValue.getInt(X)) {
          Error = "expected integer for arg '" + ArgKey + "'";
          return false;
        }
        E.Args.emplace_back(ArgKey, X);
      }
      continue;
    }
    const IntField *F = nullptr;
    for (const IntField &Candidate : IntFields)
      if (Key == Candidate.Key)
        F = &Candidate;
    if (!F) {
      Error = "unknown field '" + Key + "'";
      return false;
    }
    if (!V.getInt(*F->Dst)) {
      Error = "expected integer for '" + Key + "'";
      return false;
    }
    if (F->Seen)
      *F->Seen = true;
  }
  E.Id = static_cast<uint64_t>(Id);
  E.Cause = static_cast<uint64_t>(Cause);
  E.Trigger = static_cast<uint64_t>(Trigger);
  RunProvenance Prov;
  unsigned Seen = 0;
  if (!readProvenance(Obj, Prov, Seen, Error))
    return false;
  IsMeta = E.Kind == "journal.meta";
  if (!IsMeta) {
    if (!SawId || !SawKind || !SawTick) {
      Error = "event missing id/kind/tick";
      return false;
    }
    return true;
  }
  if (Schema != 1) {
    Error = "unsupported journal schema";
    return false;
  }
  if (Recorded < 0 || Dropped < 0) {
    Error = "meta line missing recorded/dropped";
    return false;
  }
  Out.Recorded = static_cast<uint64_t>(Recorded);
  Out.Dropped = static_cast<uint64_t>(Dropped);
  // A stamped header carries the seed; the string fields may be empty
  // but must accompany it (a partial stamp is malformed).
  if (Seen & ProvSeed) {
    Prov.Stamped = true;
    Out.Prov = std::move(Prov);
  } else if (Seen & (ProvConfigHash | ProvScenario | ProvCli)) {
    Error = "provenance stamp missing seed";
    return false;
  }
  return true;
}
} // namespace

bool cws::obs::parseJournalJsonl(const std::string &Text, ParsedJournal &Out,
                                 std::string &Error) {
  Out = ParsedJournal{};
  LineReader In(Text);
  while (In.next()) {
    if (In.line().find_first_not_of(" \t\r") == std::string::npos)
      continue;
    ParsedJournalEvent E;
    bool IsMeta = false;
    std::string Why;
    if (!parseLine(In.line(), Out, E, IsMeta, Why)) {
      Error = In.error(Why);
      return false;
    }
    if (!IsMeta)
      Out.Events.push_back(std::move(E));
  }
  return true;
}

//===----------------------------------------------------------------------===//
// The journal fold
//===----------------------------------------------------------------------===//

JournalFold cws::obs::foldJournal(const ParsedJournal &J) {
  JournalFold F;
  for (const ParsedJournalEvent &E : J.Events) {
    JournalKind Kind;
    if (!journalKindFromName(E.Kind, Kind))
      continue;
    ++F.Totals[Kind];
    ++F.Flows[E.FlowId][Kind];
    if (Kind == JournalKind::RepairOutcome) {
      if (E.Detail == "shift")
        ++F.RepairedShift;
      else if (E.Detail == "dp")
        ++F.RepairedDp;
      else if (E.Detail == "rebuild")
        ++F.Rebuilt;
      else if (E.Detail == "failed")
        ++F.RepairFailed;
    }
    if (E.JobId < 0)
      continue;
    JobRecord &R = F.Jobs[E.JobId];
    switch (Kind) {
    case JournalKind::Arrival:
      if (const int64_t *D = E.arg("deadline"))
        R.Deadline = *D;
      if (R.Verdict == JobVerdict::None) {
        R.Verdict = JobVerdict::Open;
        R.DecidedAt = E.At;
      }
      break;
    case JournalKind::Commit:
      ++R.Commits;
      // The journal's "makespan" is Distribution::makespan(), the
      // absolute completion tick the deadline check compares against.
      if (const int64_t *Makespan = E.arg("makespan"); Makespan && !R.Executed)
        R.Completion = *Makespan;
      if (const int64_t *Cost = E.arg("cost"))
        R.Cost = *Cost;
      if (const int64_t *Cf = E.arg("cf"))
        R.Cf = *Cf;
      if (R.Verdict != JobVerdict::Rejected) {
        R.Verdict = JobVerdict::Committed;
        R.DecidedAt = E.At;
      }
      break;
    case JournalKind::Reject:
      R.Verdict = JobVerdict::Rejected;
      R.DecidedAt = E.At;
      break;
    case JournalKind::Execution:
      // Actual completion under deviations overrides the committed
      // forecast.
      if (const int64_t *C = E.arg("completion")) {
        R.Completion = *C;
        R.Executed = true;
      }
      break;
    case JournalKind::RepairOutcome: {
      const int64_t *Ok = E.arg("ok");
      if (!Ok || !*Ok)
        break;
      const int64_t *Stage = E.arg("stage");
      R.RepairedBy |= 1u << (Stage && *Stage > 0 && *Stage < 32 ? *Stage : 0);
      if (Stage && *Stage < 3)
        F.FirstStage12Repair = std::min(F.FirstStage12Repair, E.At);
      break;
    }
    default:
      break;
    }
  }
  return F;
}

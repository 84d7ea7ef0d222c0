//===-- obs/Trace.cpp - Low-overhead span tracer --------------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"
#include "obs/Metrics.h"
#include "support/Check.h"
#include "support/File.h"
#include "support/Json.h"

#include <chrono>
#include <cstdio>

using namespace cws;
using namespace cws::obs;

static int64_t steadyMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Small dense thread ids for the trace viewer's per-track layout
/// (std::thread::id hashes are visually useless).
static uint32_t currentTid() {
  static std::atomic<uint32_t> Next{1};
  thread_local uint32_t Tid = Next.fetch_add(1, std::memory_order_relaxed);
  return Tid;
}

Tracer &Tracer::global() {
  static Tracer T;
  return T;
}

void Tracer::enable(size_t Capacity) {
  CWS_CHECK(Capacity > 0, "tracer needs a non-empty ring");
  std::lock_guard<std::mutex> Lock(Mu);
  Events.reset(Capacity);
  Filtered = 0;
  EpochMicros = steadyMicros();
  Enabled.store(true, std::memory_order_relaxed);
}

void Tracer::setCategoryFilter(const std::string &CommaSeparated) {
  std::vector<std::string> Parsed;
  size_t Pos = 0;
  while (Pos <= CommaSeparated.size()) {
    size_t Comma = CommaSeparated.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = CommaSeparated.size();
    std::string Part = CommaSeparated.substr(Pos, Comma - Pos);
    // Trim surrounding spaces so "core, flow" works.
    size_t B = Part.find_first_not_of(" \t");
    size_t E = Part.find_last_not_of(" \t");
    if (B != std::string::npos)
      Parsed.push_back(Part.substr(B, E - B + 1));
    Pos = Comma + 1;
  }
  std::lock_guard<std::mutex> Lock(Mu);
  Categories = std::move(Parsed);
}

bool Tracer::categoryEnabled(const char *Category) const {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Categories.empty())
    return true;
  for (const std::string &C : Categories)
    if (Category && C == Category)
      return true;
  return false;
}

uint64_t Tracer::filtered() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Filtered;
}

void Tracer::disable() { Enabled.store(false, std::memory_order_relaxed); }

void Tracer::reset() {
  disable();
  std::lock_guard<std::mutex> Lock(Mu);
  Events.reset(0);
  Categories.clear();
  Filtered = 0;
}

void Tracer::record(TracePhase Phase, const char *Category, const char *Name,
                    const TraceArg *Args, size_t ArgCount) {
  if (!enabled())
    return;
  int64_t Ts = steadyMicros();
  uint32_t Tid = currentTid();
  std::lock_guard<std::mutex> Lock(Mu);
  if (Events.capacity() == 0)
    return; // reset() raced the enabled check.
  if (!Categories.empty()) {
    bool Pass = false;
    for (const std::string &C : Categories)
      if (Category && C == Category) {
        Pass = true;
        break;
      }
    if (!Pass) {
      ++Filtered;
      return;
    }
  }
  TraceEvent &E = Events.push();
  E.Name = Name;
  E.Category = Category;
  E.TsMicros = Ts - EpochMicros;
  E.Seq = Events.recorded() - 1;
  E.Tid = Tid;
  E.Phase = Phase;
  E.ArgCount = static_cast<uint8_t>(ArgCount > 2 ? 2 : ArgCount);
  for (size_t I = 0; I < E.ArgCount; ++I)
    E.Args[I] = Args[I];
}

uint64_t Tracer::recorded() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Events.recorded();
}

uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Events.dropped();
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Events.snapshot();
}

std::string Tracer::chromeJson(const std::string &Extra) const {
  std::vector<TraceEvent> Events = snapshot();
  std::string Out = "{\"traceEvents\":[";
  char Buf[96];
  bool First = true;
  for (const TraceEvent &E : Events) {
    if (!First)
      Out += ",";
    First = false;
    Out += "{\"name\":" + json::quote(E.Name ? E.Name : "") +
           ",\"cat\":" + json::quote(E.Category ? E.Category : "");
    std::snprintf(Buf, sizeof(Buf),
                  ",\"ph\":\"%c\",\"ts\":%lld,\"pid\":1,\"tid\":%u",
                  static_cast<char>(E.Phase),
                  static_cast<long long>(E.TsMicros), E.Tid);
    Out += Buf;
    if (E.Phase == TracePhase::Instant)
      Out += ",\"s\":\"t\"";
    if (E.ArgCount > 0) {
      Out += ",\"args\":{";
      for (uint8_t I = 0; I < E.ArgCount; ++I) {
        if (I)
          Out += ",";
        Out += json::quote(E.Args[I].Key ? E.Args[I].Key : "");
        std::snprintf(Buf, sizeof(Buf), ":%lld",
                      static_cast<long long>(E.Args[I].Value));
        Out += Buf;
      }
      Out += "}";
    }
    Out += "}";
  }
  if (!Extra.empty()) {
    if (!First)
      Out += ",";
    Out += Extra;
  }
  Out += "],\"displayTimeUnit\":\"ms\"}";
  return Out;
}

bool Tracer::writeJson(const std::string &Path,
                       const std::string &Extra) const {
  return writeTextFile(Path, chromeJson(Extra));
}

void cws::obs::publishTraceStats(Registry &R) {
  const Tracer &T = Tracer::global();
  R.gauge("cws_trace_filtered_total",
          "trace events rejected by the category filter")
      .set(static_cast<int64_t>(T.filtered()));
  R.gauge("cws_trace_dropped_total",
          "trace events lost to ring wraparound")
      .set(static_cast<int64_t>(T.dropped()));
}

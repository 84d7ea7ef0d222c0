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
#include "support/Text.h"

#include <chrono>
#include <cstdio>

using namespace cws;
using namespace cws::obs;

static int64_t steadyMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer &Tracer::global() {
  static Tracer T;
  return T;
}

void Tracer::enable(size_t Capacity) {
  CWS_CHECK(Capacity > 0, "tracer needs a non-empty ring");
  Events.reset(Capacity);
  Filtered = 0;
  EpochMicros = steadyMicros();
  Enabled = true;
}

void Tracer::setCategoryFilter(const std::string &CommaSeparated) {
  Categories.clear();
  for (const std::string &Part : splitFields(CommaSeparated, ",")) {
    // Trim surrounding spaces so "core, flow" works.
    size_t B = Part.find_first_not_of(" \t");
    size_t E = Part.find_last_not_of(" \t");
    if (B != std::string::npos)
      Categories.push_back(Part.substr(B, E - B + 1));
  }
}

bool Tracer::categoryEnabled(const char *Category) const {
  if (Categories.empty())
    return true;
  for (const std::string &C : Categories)
    if (Category && C == Category)
      return true;
  return false;
}

void Tracer::reset() {
  disable();
  Events.reset(0);
  Categories.clear();
  Filtered = 0;
}

void Tracer::record(TracePhase Phase, const char *Category, const char *Name,
                    const TraceArg *Args, size_t ArgCount) {
  if (!enabled())
    return;
  if (!categoryEnabled(Category)) {
    ++Filtered;
    return;
  }
  TraceEvent &E = Events.push();
  E.Name = Name;
  E.Category = Category;
  E.TsMicros = steadyMicros() - EpochMicros;
  E.Seq = Events.recorded() - 1;
  E.Phase = Phase;
  E.ArgCount = static_cast<uint8_t>(ArgCount > 2 ? 2 : ArgCount);
  for (size_t I = 0; I < E.ArgCount; ++I)
    E.Args[I] = Args[I];
}

std::string Tracer::chromeJson(const std::string &Extra) const {
  std::string Out = "{\"traceEvents\":[";
  char Buf[96];
  bool First = true;
  for (const TraceEvent &E : snapshot()) {
    if (!First)
      Out += ",";
    First = false;
    Out += "{\"name\":" + json::quote(E.Name ? E.Name : "") +
           ",\"cat\":" + json::quote(E.Category ? E.Category : "");
    std::snprintf(Buf, sizeof(Buf),
                  ",\"ph\":\"%c\",\"ts\":%lld,\"pid\":1,\"tid\":1",
                  static_cast<char>(E.Phase),
                  static_cast<long long>(E.TsMicros));
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

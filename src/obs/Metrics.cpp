//===-- obs/Metrics.cpp - Counters, gauges, histograms --------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"
#include "support/Check.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <unordered_set>

using namespace cws;
using namespace cws::obs;

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

Histogram::Histogram(std::vector<double> UpperBounds)
    : Bounds(std::move(UpperBounds)) {
  CWS_CHECK(!Bounds.empty(), "histogram needs at least one bucket bound");
  for (size_t I = 1; I < Bounds.size(); ++I)
    CWS_CHECK(Bounds[I - 1] < Bounds[I],
              "histogram bounds must be strictly increasing");
  Buckets.assign(Bounds.size() + 1, 0);
}

void Histogram::observe(double X) {
  size_t I = 0;
  while (I < Bounds.size() && X > Bounds[I])
    ++I;
  ++Buckets[I];
  ++N;
  Sum += X;
}

uint64_t Histogram::cumulativeCount(size_t I) const {
  uint64_t Total = 0;
  for (size_t B = 0; B <= I && B <= Bounds.size(); ++B)
    Total += bucketCount(B);
  return Total;
}

double Histogram::quantile(double Q) const {
  uint64_t Total = count();
  if (Total == 0)
    return std::nan("");
  double Rank = Q * static_cast<double>(Total);
  uint64_t Cum = 0;
  for (size_t I = 0; I < Bounds.size(); ++I) {
    uint64_t InBucket = bucketCount(I);
    if (InBucket == 0)
      continue;
    if (static_cast<double>(Cum + InBucket) >= Rank) {
      // The first bucket's lower edge is taken as 0 when its bound is
      // positive (histogram_quantile's convention); non-positive first
      // bounds yield the bound itself.
      if (I == 0 && Bounds[0] <= 0)
        return Bounds[0];
      double Start = I == 0 ? 0.0 : Bounds[I - 1];
      double End = Bounds[I];
      double Frac = (Rank - static_cast<double>(Cum)) /
                    static_cast<double>(InBucket);
      if (Frac < 0)
        Frac = 0;
      if (Frac > 1)
        Frac = 1;
      return Start + (End - Start) * Frac;
    }
    Cum += InBucket;
  }
  // The rank lands in the +Inf bucket: best estimate is the highest
  // finite bound.
  return Bounds.back();
}

void Histogram::reset() {
  Buckets.assign(Buckets.size(), 0);
  N = 0;
  Sum = 0.0;
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

Registry &Registry::global() {
  static Registry R;
  return R;
}

Registry::Entry *Registry::find(const std::string &Name) {
  for (auto &E : Entries)
    if (E->Name == Name)
      return E.get();
  return nullptr;
}

const Registry::Entry *Registry::find(const std::string &Name) const {
  for (const auto &E : Entries)
    if (E->Name == Name)
      return E.get();
  return nullptr;
}

Counter &Registry::counter(const std::string &Name, const std::string &Help) {
  if (Entry *E = find(Name)) {
    CWS_CHECK(E->EntryKind == Kind::Counter,
              "metric re-registered under a different kind");
    return *E->C;
  }
  auto E = std::make_unique<Entry>();
  E->Name = Name;
  E->Help = Help;
  E->EntryKind = Kind::Counter;
  E->C = std::make_unique<Counter>();
  Entries.push_back(std::move(E));
  return *Entries.back()->C;
}

Gauge &Registry::gauge(const std::string &Name, const std::string &Help) {
  if (Entry *E = find(Name)) {
    CWS_CHECK(E->EntryKind == Kind::Gauge,
              "metric re-registered under a different kind");
    return *E->G;
  }
  auto E = std::make_unique<Entry>();
  E->Name = Name;
  E->Help = Help;
  E->EntryKind = Kind::Gauge;
  E->G = std::make_unique<Gauge>();
  Entries.push_back(std::move(E));
  return *Entries.back()->G;
}

RealGauge &Registry::realGauge(const std::string &Name,
                               const std::string &Help) {
  if (Entry *E = find(Name)) {
    CWS_CHECK(E->EntryKind == Kind::RealGauge,
              "metric re-registered under a different kind");
    return *E->R;
  }
  auto E = std::make_unique<Entry>();
  E->Name = Name;
  E->Help = Help;
  E->EntryKind = Kind::RealGauge;
  E->R = std::make_unique<RealGauge>();
  Entries.push_back(std::move(E));
  return *Entries.back()->R;
}

Histogram &Registry::histogram(const std::string &Name,
                               std::vector<double> UpperBounds,
                               const std::string &Help) {
  if (Entry *E = find(Name)) {
    CWS_CHECK(E->EntryKind == Kind::Histogram,
              "metric re-registered under a different kind");
    return *E->H;
  }
  auto E = std::make_unique<Entry>();
  E->Name = Name;
  E->Help = Help;
  E->EntryKind = Kind::Histogram;
  E->H = std::make_unique<Histogram>(std::move(UpperBounds));
  Entries.push_back(std::move(E));
  return *Entries.back()->H;
}

std::string cws::obs::renderNumber(double X) {
  char Buf[64];
  // Range-check before the cast: converting NaN, an infinity or a
  // magnitude of 2^63 or more to long long is undefined.
  constexpr double Limit = 9223372036854775808.0; // 2^63
  if (X > -Limit && X < Limit && X == std::trunc(X)) {
    std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(X));
    return Buf;
  }
  for (int Precision = 1; Precision <= 17; ++Precision) {
    std::snprintf(Buf, sizeof(Buf), "%.*g", Precision, X);
    if (std::strtod(Buf, nullptr) == X)
      break;
  }
  return Buf;
}

std::string cws::obs::escapeLabelValue(const std::string &Raw) {
  std::string Out;
  Out.reserve(Raw.size());
  for (char C : Raw) {
    switch (C) {
    case '\\':
      Out += "\\\\";
      break;
    case '"':
      Out += "\\\"";
      break;
    case '\n':
      Out += "\\n";
      break;
    default:
      Out += C;
    }
  }
  return Out;
}

/// Metric family of a (possibly labeled) series name: everything
/// before the label braces.
static std::string familyOf(const std::string &Name) {
  size_t Brace = Name.find('{');
  return Brace == std::string::npos ? Name : Name.substr(0, Brace);
}

std::string Registry::prometheusText() const {
  std::string Out;
  // Labeled series of one family (cws_flow_x{flow="S1"}, {flow="S2"},
  // ...) share one HELP/TYPE header.
  std::unordered_set<std::string> SeenFamilies;
  for (const auto &E : Entries) {
    std::string Family = familyOf(E->Name);
    bool FirstOfFamily = SeenFamilies.insert(Family).second;
    if (FirstOfFamily && !E->Help.empty())
      Out += "# HELP " + Family + " " + E->Help + "\n";
    switch (E->EntryKind) {
    case Kind::Counter:
      if (FirstOfFamily)
        Out += "# TYPE " + Family + " counter\n";
      Out += E->Name + " " + std::to_string(E->C->value()) + "\n";
      break;
    case Kind::Gauge:
      if (FirstOfFamily)
        Out += "# TYPE " + Family + " gauge\n";
      Out += E->Name + " " + std::to_string(E->G->value()) + "\n";
      break;
    case Kind::RealGauge:
      if (FirstOfFamily)
        Out += "# TYPE " + Family + " gauge\n";
      Out += E->Name + " " + renderNumber(E->R->value()) + "\n";
      break;
    case Kind::Histogram: {
      const Histogram &H = *E->H;
      if (FirstOfFamily)
        Out += "# TYPE " + Family + " histogram\n";
      uint64_t Cumulative = 0;
      for (size_t I = 0; I < H.bounds().size(); ++I) {
        Cumulative += H.bucketCount(I);
        Out += E->Name + "_bucket{le=\"" + renderNumber(H.bounds()[I]) +
               "\"} " + std::to_string(Cumulative) + "\n";
      }
      Cumulative += H.bucketCount(H.bounds().size());
      Out += E->Name + "_bucket{le=\"+Inf\"} " +
             std::to_string(Cumulative) + "\n";
      Out += E->Name + "_sum " + renderNumber(H.sum()) + "\n";
      Out += E->Name + "_count " + std::to_string(H.count()) + "\n";
      // Untyped quantile summaries computed from the buckets, so a
      // plain-text reader gets p50/p90/p99 without PromQL.
      if (H.count() > 0) {
        Out += E->Name + "_p50 " + renderNumber(H.quantile(0.50)) + "\n";
        Out += E->Name + "_p90 " + renderNumber(H.quantile(0.90)) + "\n";
        Out += E->Name + "_p99 " + renderNumber(H.quantile(0.99)) + "\n";
      }
      break;
    }
    }
  }
  return Out;
}

void Registry::reset() {
  for (auto &E : Entries) {
    switch (E->EntryKind) {
    case Kind::Counter:
      E->C->reset();
      break;
    case Kind::Gauge:
      E->G->reset();
      break;
    case Kind::RealGauge:
      E->R->reset();
      break;
    case Kind::Histogram:
      E->H->reset();
      break;
    }
  }
}

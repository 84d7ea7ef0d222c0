//===-- obs/Metrics.h - Counters, gauges, histograms ------------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A metrics registry of named counters, gauges and fixed-bucket
/// histograms with Prometheus-style text exposition. Updates are plain
/// arithmetic, cheap enough to stay in hot paths unconditionally; call
/// sites cache the instrument reference in a function-local static:
///
///   static obs::Counter &Collisions = obs::Registry::global().counter(
///       "cws_scheduler_collisions_total", "collisions during allocation");
///   Collisions.add(Result.Collisions.size());
///
/// Instrument references stay valid for the registry's lifetime;
/// `reset()` zeroes values but never unregisters.
///
/// Thread-compatible, like a standard container: one thread at a time.
/// The program starts no second thread, and the `single_thread_guard`
/// test keeps it that way.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_OBS_METRICS_H
#define CWS_OBS_METRICS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace cws {
namespace obs {

/// Renders \p X the way Prometheus clients do: integral values without
/// a fractional part, others with the fewest digits that round-trip
/// (so 6.4 renders as "6.4", not "6.4000000000000004").
std::string renderNumber(double X);

/// Escapes \p Raw for use inside a Prometheus label value per the text
/// exposition format: `\` -> `\\`, `"` -> `\"`, newline -> `\n`. The
/// result is safe to splice between the quotes of `{label="..."}`.
std::string escapeLabelValue(const std::string &Raw);

/// Monotone event counter.
class Counter {
public:
  void add(uint64_t N = 1) { V += N; }
  uint64_t value() const { return V; }
  void reset() { V = 0; }

private:
  uint64_t V = 0;
};

/// Last-value gauge (signed: depths, deltas, clocks).
class Gauge {
public:
  void set(int64_t X) { V = X; }
  void add(int64_t N = 1) { V += N; }
  void sub(int64_t N = 1) { V -= N; }
  int64_t value() const { return V; }
  void reset() { V = 0; }

private:
  int64_t V = 0;
};

/// Last-value gauge for real-valued samples (QoS means, percentages,
/// ratios); exposed as a Prometheus gauge.
class RealGauge {
public:
  void set(double X) { V = X; }
  double value() const { return V; }
  void reset() { V = 0.0; }

private:
  double V = 0.0;
};

/// Fixed-bucket histogram with Prometheus `le` (less-or-equal)
/// semantics: an observation lands in the first bucket whose upper
/// bound is >= the value; values above every bound land in the
/// implicit +Inf bucket.
class Histogram {
public:
  /// \p UpperBounds must be strictly increasing and non-empty.
  explicit Histogram(std::vector<double> UpperBounds);

  void observe(double X);

  uint64_t count() const { return N; }
  double sum() const { return Sum; }
  const std::vector<double> &bounds() const { return Bounds; }
  /// Non-cumulative count of bucket \p I; I == bounds().size() is the
  /// +Inf bucket.
  uint64_t bucketCount(size_t I) const { return Buckets[I]; }
  /// Cumulative count of observations <= bounds()[I] (Prometheus
  /// exposition form).
  uint64_t cumulativeCount(size_t I) const;

  /// Quantile estimate with `histogram_quantile` semantics: linear
  /// interpolation inside the bucket holding rank `Q * count()`; a
  /// rank in the +Inf bucket returns the highest finite bound; NaN
  /// when empty.
  double quantile(double Q) const;

  void reset();

private:
  std::vector<double> Bounds;
  /// Bounds.size() + 1 slots; the last is +Inf.
  std::vector<uint64_t> Buckets;
  uint64_t N = 0;
  double Sum = 0.0;
};

/// Named instrument registry.
class Registry {
public:
  /// The process-wide registry the built-in instrumentation uses.
  static Registry &global();

  /// Returns the counter registered under \p Name, creating it on
  /// first use. Re-registration under a different kind aborts.
  /// Names may carry a Prometheus label set (`cws_x{flow="S1"}`);
  /// exposition emits HELP/TYPE once per family (the part before '{').
  Counter &counter(const std::string &Name, const std::string &Help = "");
  Gauge &gauge(const std::string &Name, const std::string &Help = "");
  RealGauge &realGauge(const std::string &Name, const std::string &Help = "");
  /// \p UpperBounds is only consulted on first registration.
  Histogram &histogram(const std::string &Name,
                       std::vector<double> UpperBounds,
                       const std::string &Help = "");

  /// Prometheus text exposition (version 0.0.4) of every instrument.
  std::string prometheusText() const;

  /// Zeroes every instrument's value; registrations survive.
  void reset();

private:
  enum class Kind { Counter, Gauge, RealGauge, Histogram };
  struct Entry {
    std::string Name;
    std::string Help;
    Kind EntryKind;
    std::unique_ptr<Counter> C;
    std::unique_ptr<Gauge> G;
    std::unique_ptr<obs::RealGauge> R;
    std::unique_ptr<Histogram> H;
  };

  Entry *find(const std::string &Name);
  const Entry *find(const std::string &Name) const;

  /// Exposition preserves registration order; lookups scan (registration
  /// is rare, updates go through cached references).
  std::vector<std::unique_ptr<Entry>> Entries;
};

} // namespace obs
} // namespace cws

#endif // CWS_OBS_METRICS_H

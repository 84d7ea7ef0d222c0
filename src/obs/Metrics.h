//===-- obs/Metrics.h - Counters, gauges, histograms ------------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A metrics registry of named counters, gauges and fixed-bucket
/// histograms with Prometheus-style text exposition. Updates are relaxed
/// atomics, cheap enough to stay in hot paths unconditionally; call
/// sites cache the instrument reference in a function-local static:
///
///   static obs::Counter &Collisions = obs::Registry::global().counter(
///       "cws_scheduler_collisions_total", "collisions during allocation");
///   Collisions.add(Result.Collisions.size());
///
/// Instrument references stay valid for the registry's lifetime;
/// `reset()` zeroes values but never unregisters.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_OBS_METRICS_H
#define CWS_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
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
  void add(uint64_t N = 1) { V.fetch_add(N, std::memory_order_relaxed); }
  uint64_t value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> V{0};
};

/// Last-value gauge (signed: depths, deltas, clocks).
class Gauge {
public:
  void set(int64_t X) { V.store(X, std::memory_order_relaxed); }
  void add(int64_t N = 1) { V.fetch_add(N, std::memory_order_relaxed); }
  void sub(int64_t N = 1) { V.fetch_sub(N, std::memory_order_relaxed); }
  int64_t value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<int64_t> V{0};
};

/// Last-value gauge for real-valued samples (QoS means, percentages,
/// ratios). Stored as a bit-cast double so set/value stay single
/// relaxed atomic operations; exposed as a Prometheus gauge.
class RealGauge {
public:
  void set(double X) {
    uint64_t Bits;
    std::memcpy(&Bits, &X, sizeof(Bits));
    V.store(Bits, std::memory_order_relaxed);
  }
  double value() const {
    uint64_t Bits = V.load(std::memory_order_relaxed);
    double X;
    std::memcpy(&X, &Bits, sizeof(X));
    return X;
  }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  /// Bits of 0.0 are all-zero, so the default is an exact 0.0.
  std::atomic<uint64_t> V{0};
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

  uint64_t count() const { return N.load(std::memory_order_relaxed); }
  double sum() const;
  const std::vector<double> &bounds() const { return Bounds; }
  /// Non-cumulative count of bucket \p I; I == bounds().size() is the
  /// +Inf bucket.
  uint64_t bucketCount(size_t I) const {
    return Buckets[I].load(std::memory_order_relaxed);
  }
  /// Cumulative count of observations <= bounds()[I] (Prometheus
  /// exposition form).
  uint64_t cumulativeCount(size_t I) const;

  /// Quantile estimate with `histogram_quantile` semantics: linear
  /// interpolation inside the bucket holding rank `Q * count()`; a
  /// rank in the +Inf bucket returns the highest finite bound; NaN
  /// when empty.
  double quantile(double Q) const;

  /// Merges \p Other into this histogram: bucket counts, observation
  /// count and sum add up, so pooling per-run histograms across a
  /// scenario sweep is exact (both must use identical bounds; a
  /// mismatch aborts). The merged result equals observing both streams
  /// into one histogram, in any merge order.
  void merge(const Histogram &Other);

  void reset();

private:
  std::vector<double> Bounds;
  /// Bounds.size() + 1 slots; the last is +Inf.
  std::unique_ptr<std::atomic<uint64_t>[]> Buckets;
  std::atomic<uint64_t> N{0};
  /// Sum as a bit-cast double updated by CAS (atomic<double>::fetch_add
  /// is not universally available).
  std::atomic<uint64_t> SumBits{0};
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

  mutable std::mutex Mu;
  /// Exposition preserves registration order; lookups scan (registration
  /// is rare, updates go through cached references).
  std::vector<std::unique_ptr<Entry>> Entries;
};

} // namespace obs
} // namespace cws

#endif // CWS_OBS_METRICS_H

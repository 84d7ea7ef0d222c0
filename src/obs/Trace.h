//===-- obs/Trace.h - Low-overhead span tracer ------------------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A low-overhead span tracer: a ring buffer of begin/end/instant
/// events, recorded through RAII `Span` scopes, exported as Chrome
/// trace-event JSON (loadable in chrome://tracing or Perfetto). A
/// `Span` also times its region into the phase profiler.
///
/// The tracer is disabled by default. While disabled every record call
/// is a single load of a flag plus a predictable branch, so
/// instrumentation may stay in hot paths permanently; the
/// `obs_overhead` bench guards this property.
///
/// Thread-compatible, like a standard container: one thread at a time.
/// The program starts no second thread, and the `single_thread_guard`
/// test keeps it that way. Every event is on trace thread 1.
///
/// Event names and categories must be string literals (or otherwise
/// outlive the tracer): the ring buffer stores the pointers only, and
/// the profiler finds a span's phase by the address of its name.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_OBS_TRACE_H
#define CWS_OBS_TRACE_H

#include "obs/Profiler.h"
#include "support/Ring.h"

#include <cstdint>
#include <string>
#include <vector>

namespace cws {
namespace obs {

class Registry;

/// Chrome trace-event phases the tracer emits.
enum class TracePhase : char {
  Begin = 'B',
  End = 'E',
  Instant = 'i',
};

/// One numeric argument attached to an event. Keys must be string
/// literals for the same lifetime reason as names.
struct TraceArg {
  const char *Key = nullptr;
  int64_t Value = 0;
};

/// One recorded event (one ring-buffer slot).
struct TraceEvent {
  const char *Name = nullptr;
  const char *Category = nullptr;
  /// Microseconds since the tracer was enabled.
  int64_t TsMicros = 0;
  /// Monotone sequence number; orders events across wraparound.
  uint64_t Seq = 0;
  TracePhase Phase = TracePhase::Instant;
  uint8_t ArgCount = 0;
  TraceArg Args[2];
};

/// Ring-buffer tracer.
///
/// Most code records through the process-wide `Tracer::global()`
/// instance via `Span` guards and `instant()`; tests may construct
/// their own.
class Tracer {
public:
  static constexpr size_t DefaultCapacity = 1 << 16;

  /// The process-wide tracer every `Span` records into.
  static Tracer &global();

  /// Starts recording into a fresh ring of \p Capacity slots and
  /// resets the timestamp epoch.
  void enable(size_t Capacity = DefaultCapacity);

  /// Stops recording. Already recorded events stay exportable.
  void disable() { Enabled = false; }

  bool enabled() const { return Enabled; }

  /// Restricts recording to the categories in \p CommaSeparated (e.g.
  /// "core,flow"); the empty string lifts the restriction. High-volume
  /// categories (`sim`: one `sim.tick` span per simulator event) can
  /// this way be masked out before they wrap the ring. The filter
  /// survives enable()/disable() (reset() clears it) and may be changed
  /// mid-run. It masks trace events only; the profiler times every span.
  void setCategoryFilter(const std::string &CommaSeparated);

  /// True when events of \p Category currently pass the filter.
  bool categoryEnabled(const char *Category) const;

  /// Events rejected by the category filter since enable().
  uint64_t filtered() const { return Filtered; }

  /// Records one event; no-op while disabled.
  void record(TracePhase Phase, const char *Category, const char *Name,
              const TraceArg *Args = nullptr, size_t ArgCount = 0);

  /// Records an instant event; no-op while disabled.
  void instant(const char *Category, const char *Name) {
    record(TracePhase::Instant, Category, Name);
  }
  void instant(const char *Category, const char *Name, const char *Key,
               int64_t Value) {
    TraceArg A{Key, Value};
    record(TracePhase::Instant, Category, Name, &A, 1);
  }

  /// Events recorded since enable() (including overwritten ones).
  uint64_t recorded() const { return Events.recorded(); }
  /// Events lost to ring wraparound.
  uint64_t dropped() const { return Events.dropped(); }

  /// Copies the surviving events out in record order.
  std::vector<TraceEvent> snapshot() const { return Events.snapshot(); }

  /// Renders the surviving events as Chrome trace-event JSON. \p Extra
  /// is a pre-rendered comma-separated fragment of additional trace
  /// events (e.g. `TimeSeries::chromeTraceEvents()`) spliced into the
  /// same `traceEvents` array; empty merges nothing.
  std::string chromeJson(const std::string &Extra = "") const;

  /// Writes chromeJson(\p Extra) to \p Path; returns false on I/O
  /// failure.
  bool writeJson(const std::string &Path,
                 const std::string &Extra = "") const;

  /// Drops all recorded events and disables the tracer.
  void reset();

private:
  bool Enabled = false;
  Ring<TraceEvent> Events;
  /// Enabled categories; empty means every category records.
  std::vector<std::string> Categories;
  /// Events rejected by the category filter since enable().
  uint64_t Filtered = 0;
  /// steady_clock epoch (microseconds) set at enable().
  int64_t EpochMicros = 0;
};

/// RAII scope of one timed region, the one scope type of the program.
/// It feeds each sink that is on when it opens:
/// - the tracer: a Begin event now and the matching End on destruction.
///   Arguments attached with `arg()` travel with the End event, so
///   values computed inside the span can be attached before it closes.
/// - the profiler (obs/Profiler.h): its wall time and the counters
///   attached with `work()` go to the phase named \p Name.
/// With both sinks off, a span costs two flag loads.
class Span {
public:
  Span(const char *Category, const char *Name)
      : Category(Category), Name(Name),
        Traced(Tracer::global().enabled()) {
    if (Traced)
      Tracer::global().record(TracePhase::Begin, Category, Name);
    if (Profiler::global().enabled())
      openPhase();
  }
  Span(const char *Category, const char *Name, const char *Key,
       int64_t Value)
      : Span(Category, Name) {
    arg(Key, Value);
  }
  ~Span() {
    if (Accum)
      closePhase();
    if (Traced)
      Tracer::global().record(TracePhase::End, Category, Name, Args,
                              ArgCount);
  }
  /// Attaches a numeric argument to the closing event (at most two;
  /// later calls overwrite the second slot).
  void arg(const char *Key, int64_t Value) {
    if (!Traced)
      return;
    size_t Slot = ArgCount < 2 ? ArgCount++ : 1;
    Args[Slot] = TraceArg{Key, Value};
  }
  /// Adds \p N units of \p Counter to the phase.
  void work(const char *Counter, uint64_t N) {
    if (Accum)
      addWork(Counter, N);
  }

  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  void openPhase();
  void closePhase();
  void addWork(const char *Counter, uint64_t N);

  const char *Category;
  const char *Name;
  TraceArg Args[2];
  uint8_t ArgCount = 0;
  bool Traced;
  /// The phase's accumulator; null when the profiler was off at open.
  PhaseAccum *Accum = nullptr;
  /// The enclosing open span, whose self time excludes this one.
  Span *Parent = nullptr;
  int64_t StartNs = 0;
  /// Closed child time, accumulated by the children.
  double ChildUs = 0.0;
};

/// Publishes the global tracer's loss counters into \p R as
/// `cws_trace_filtered_total` / `cws_trace_dropped_total` gauges, so
/// exported metrics snapshots show whether (and how much of) the trace
/// is incomplete.
void publishTraceStats(Registry &R);

} // namespace obs
} // namespace cws

#endif // CWS_OBS_TRACE_H

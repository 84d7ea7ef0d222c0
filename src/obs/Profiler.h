//===-- obs/Profiler.h - Hierarchical phase profiler ------------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A hierarchical phase profiler answering "where did the scheduler's
/// wall-clock and work go": every `obs::Span` (obs/Trace.h) adds its
/// call count, total/self wall time and duration quantiles (via
/// `obs::Histogram`) to the phase of its name, plus named *work
/// counters* (placements re-validated, DP labels kept, variants built)
/// attached with `Span::work`.
///
/// Every span of one phase name adds into that name's accumulator. A
/// span finds it by the address of its name literal, so opening one
/// compares a few pointers and closing it is plain arithmetic: no
/// string is built or compared after a site's first span. Exports list
/// phases sorted by name. Counts and work counters are identical from
/// run to run; only the wall-time fields vary.
///
/// Like the tracer, the profiler is disabled by default and the
/// disabled path is one load of a flag plus a branch: no clock read,
/// no allocation (the `obs_overhead` bench and `tests/test_profiler`
/// guard this).
///
/// Thread-compatible, like a standard container: one thread at a time.
/// The program starts no second thread, and the `single_thread_guard`
/// test keeps it that way.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_OBS_PROFILER_H
#define CWS_OBS_PROFILER_H

#include "obs/Metrics.h"
#include "obs/Provenance.h"

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace cws {
namespace obs {

class Span;

/// Merged statistics of one phase, the unit of every export form.
struct PhaseStats {
  std::string Name;
  /// Completed scopes (phases still open at snapshot are not counted).
  uint64_t Count = 0;
  /// Wall time inside the phase, child phases included.
  double TotalUs = 0.0;
  /// Wall time minus child-phase time, >= 0.
  double SelfUs = 0.0;
  /// Per-scope duration quantiles (0 when Count == 0).
  double P50Us = 0.0;
  double P99Us = 0.0;
  /// Deterministic work counters, sorted by name.
  std::vector<std::pair<std::string, uint64_t>> Work;

  const uint64_t *work(const std::string &Counter) const;
};

/// The `{"counter": N, ...}` object of work counters, as `profile.json`
/// phases and `BENCH_*.json` render them.
std::string
workCountersJson(const std::vector<std::pair<std::string, uint64_t>> &Work);

/// The JSON array of phase records `profile.json` and `BENCH_*.json`
/// share: one `{"name", "count", "total_us", "self_us", "p50_us",
/// "p99_us", "work"}` object per line, laid out as the value of a
/// top-level member.
std::string phaseRecordsJson(const std::vector<PhaseStats> &Phases);

/// A parsed `profile.json` (written by `Profiler::json`).
struct ParsedProfile {
  RunProvenance Prov;
  /// Sorted by phase name, like every export.
  std::vector<PhaseStats> Phases;
  bool empty() const { return Phases.empty(); }
};

/// Parses text written by `Profiler::json`. Returns false and sets
/// \p Error on malformed input or a schema mismatch.
bool parseProfileJson(const std::string &Text, ParsedProfile &Out,
                      std::string &Error);

/// The accumulator of one phase name: every span of that name adds its
/// count, wall time and work here.
class PhaseAccum {
public:
  PhaseAccum();

private:
  friend class Profiler;
  friend class Span;

  uint64_t Count = 0;
  double TotalUs = 0.0;
  /// Child-phase time inside this phase.
  double ChildUs = 0.0;
  Histogram DurUs;
  /// Work counters in first-attached order.
  std::vector<std::pair<std::string, uint64_t>> Work;
};

/// The process's phase profiler.
class Profiler {
public:
  /// The instance every `Span` records into.
  static Profiler &global();

  /// Starts accumulating. Unlike the tracer there is no ring to size:
  /// state is per-phase, not per-event. Previously accumulated data is
  /// kept (pause/resume); call reset() for a fresh profile.
  void enable() { On = true; }
  void disable() { On = false; }
  bool enabled() const { return On; }

  /// Zeroes every accumulator (they survive, like the metrics
  /// registry's instruments), drops the provenance and disables the
  /// profiler.
  void reset();

  /// Provenance stamped into `json()`, mirroring Journal/TimeSeries.
  void setProvenance(const RunProvenance &P);

  /// The deterministic export form: one record per phase closed, or
  /// given work, since the last reset(), sorted by name.
  std::vector<PhaseStats> snapshot() const;

  /// The `profile.json` document (`cws-profile-v1` schema): provenance
  /// plus one record per phase, sorted by name.
  std::string json() const;

  /// Writes json() to \p Path; false on I/O failure.
  bool writeJson(const std::string &Path) const;

  /// Pre-rendered comma-separated Chrome trace-event fragment — one
  /// complete ("X") summary slice per phase on a dedicated pid, laid
  /// end to end — for splicing into `Tracer::chromeJson(Extra)`.
  /// Empty when nothing was profiled.
  std::string chromeTraceEvents() const;

private:
  friend class Span;

  Profiler() = default;

  /// The accumulator of phase \p Name, created on first use. Found by
  /// the name's address; a second address of a known name joins that
  /// name's accumulator.
  PhaseAccum &phase(const char *Name);

  bool On = false;
  /// By name, so exports come out sorted; map nodes never move, so the
  /// pointers `ByAddress` holds stay valid.
  std::map<std::string, PhaseAccum> Phases;
  /// Every name address seen, with its accumulator. Names are literals,
  /// as the tracer requires, so an address keeps its name.
  std::vector<std::pair<const char *, PhaseAccum *>> ByAddress;
  /// Innermost open span (the self-time chain).
  Span *Open = nullptr;
  RunProvenance Prov;
};

} // namespace obs
} // namespace cws

#endif // CWS_OBS_PROFILER_H

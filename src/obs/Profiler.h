//===-- obs/Profiler.h - Hierarchical phase profiler ------------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A scoped hierarchical phase profiler answering "where did the
/// scheduler's wall-clock and work go": RAII `CWS_PHASE("chain.dp")`
/// guards accumulate per-phase call counts, total/self wall time and
/// duration quantiles (via `obs::Histogram`), plus named *work
/// counters* (placements re-validated, DP labels kept, variants built)
/// attached with `PhaseScope::work`.
///
/// Accumulation is per-thread — a guard never touches shared state
/// while open — and threads merge deterministically at export: counts,
/// work and histogram buckets add, phases sort by name. Counts and work
/// counters are therefore identical from run to run; only the wall-time
/// fields vary.
///
/// Like the tracer, the profiler is disabled by default and the
/// disabled path is one relaxed atomic load plus a branch — no clock
/// read, no allocation (the `obs_overhead` bench and `tests/test_profiler`
/// guard this). `CWS_OBS_ENABLED=0` removes the guard bodies entirely.
///
/// Phase names must be string literals (or otherwise outlive the open
/// scope).
///
//===----------------------------------------------------------------------===//

#ifndef CWS_OBS_PROFILER_H
#define CWS_OBS_PROFILER_H

#include "obs/Provenance.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#ifndef CWS_OBS_ENABLED
#define CWS_OBS_ENABLED 1
#endif

namespace cws {
namespace obs {

class Histogram;
class Registry;
class PhaseScope;

/// Merged statistics of one phase, the unit of every export form.
struct PhaseStats {
  std::string Name;
  /// Completed scopes (phases still open at snapshot are not counted).
  uint64_t Count = 0;
  /// Wall time inside the phase, child phases included.
  double TotalUs = 0.0;
  /// Wall time minus same-thread child-phase time, >= 0.
  double SelfUs = 0.0;
  /// Per-scope duration quantiles (NaN when Count == 0).
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

/// The process-wide phase profiler. Tests may construct their own.
class Profiler {
public:
  Profiler();
  ~Profiler();

  /// The instance every `CWS_PHASE` guard records into.
  static Profiler &global();

  /// Starts accumulating. Unlike the tracer there is no ring to size:
  /// state is per-phase, not per-event. Previously accumulated data is
  /// kept (pause/resume); call reset() for a fresh profile.
  void enable() { On.store(true, std::memory_order_relaxed); }
  void disable() { On.store(false, std::memory_order_relaxed); }
  bool enabled() const { return On.load(std::memory_order_relaxed); }

  /// Drops all accumulated data (thread registrations survive, like
  /// the metrics registry) and disables the profiler.
  void reset();

  /// Provenance stamped into `json()`, mirroring Journal/TimeSeries.
  void setProvenance(const RunProvenance &P);

  /// Merges every thread's accumulators into the deterministic export
  /// form: phases sorted by name, counts / work / histogram buckets
  /// added across threads.
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
  friend class PhaseScope;

  /// Accumulator of one phase on one thread.
  struct PhaseAccum {
    uint64_t Count = 0;
    double TotalUs = 0.0;
    /// Same-thread child-phase time inside this phase.
    double ChildUs = 0.0;
    std::unique_ptr<Histogram> DurUs;
    std::map<std::string, uint64_t> Work;
  };

  /// One thread's accumulation state. Owned by the profiler so data
  /// survives thread exit; the mutex only contends with snapshot().
  struct ThreadState {
    mutable std::mutex Mu;
    std::map<std::string, PhaseAccum> Phases;
    /// Innermost open scope on this thread (self-time chain).
    PhaseScope *Open = nullptr;
  };

  ThreadState &threadState();

  std::atomic<bool> On{false};
  mutable std::mutex Mu;
  std::vector<std::unique_ptr<ThreadState>> Threads;
  RunProvenance Prov;
};

/// RAII phase guard; see the file comment for the accounting rules.
class PhaseScope {
public:
#if CWS_OBS_ENABLED
  explicit PhaseScope(const char *Name);
  ~PhaseScope();
  /// Attaches \p N units of \p Counter to this phase.
  void work(const char *Counter, uint64_t N);
#else
  explicit PhaseScope(const char *) {}
  void work(const char *, uint64_t) {}
#endif

  PhaseScope(const PhaseScope &) = delete;
  PhaseScope &operator=(const PhaseScope &) = delete;

private:
#if CWS_OBS_ENABLED
  friend class Profiler;
  const char *Name;
  Profiler::ThreadState *TS = nullptr;
  PhaseScope *Parent = nullptr;
  int64_t StartNs = 0;
  /// Closed same-thread child time, accumulated by the children.
  double ChildUs = 0.0;
#endif
};

#define CWS_PHASE_CONCAT_IMPL(A, B) A##B
#define CWS_PHASE_CONCAT(A, B) CWS_PHASE_CONCAT_IMPL(A, B)
/// Opens a profiler phase for the enclosing scope:
///   CWS_PHASE("meta.commit.apply");
#define CWS_PHASE(NameLiteral)                                                 \
  ::cws::obs::PhaseScope CWS_PHASE_CONCAT(CwsPhaseScope_,                      \
                                          __LINE__)(NameLiteral)

/// Publishes \p P's merged snapshot into \p R as `cws_phase_count` /
/// `cws_phase_total_us` / `cws_phase_self_us` gauges and
/// `cws_phase_work{phase=...,counter=...}` counters, so a `--metrics`
/// snapshot carries the phase breakdown next to everything else.
void publishProfilerStats(const Profiler &P, Registry &R);

} // namespace obs
} // namespace cws

#endif // CWS_OBS_PROFILER_H

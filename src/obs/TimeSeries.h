//===-- obs/TimeSeries.h - Sim-time telemetry sampler -----------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sim-time telemetry: a sampler driven by the `Simulator` clock that
/// records *trajectories* instead of end-of-run aggregates. Every
/// `SampleEvery` simulation ticks — and on key scheduling events
/// (environment change, reallocation, commit, dispatch) — it captures
/// one frame into a bounded deterministic ring:
///
///  - the values of a set of registered metric probes (deltas of
///    deterministic registry counters, so two runs in one process
///    produce identical series);
///  - per-node utilization splits (busy-by-jobs / busy-by-background
///    fractions of the elapsed window, plus the reserved fraction of
///    the lookahead window), computed from `resource/Timeline` via an
///    injected provider so this layer stays below `resource`;
///  - per-flow in-flight / queued job counts.
///
/// Frames carry the simulation tick only — never wall-clock time — so
/// for a fixed seed the exported series is byte-identical from run to
/// run. The sampler is disabled by default;
/// while disabled `onTick()` is one load of a flag plus a branch
/// (guarded by the `obs_overhead` bench).
///
/// Exports: tidy CSV (`--timeseries=FILE`), and a Chrome
/// trace-event fragment (counter tracks + per-node occupancy slices)
/// that `Tracer::chromeJson` merges next to the wall-clock spans.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_OBS_TIMESERIES_H
#define CWS_OBS_TIMESERIES_H

#include "obs/Provenance.h"
#include "sim/Time.h"
#include "support/Ring.h"

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace cws {
namespace obs {

class Registry;

/// Sampler parameters.
struct TimeSeriesConfig {
  /// Periodic frame cadence: a frame is taken at the first simulation
  /// event whose tick reaches each multiple of this.
  Tick SampleEvery = 25;
  /// Frame ring capacity; the oldest frames are overwritten first and
  /// losses are counted (`cws_timeseries_dropped`).
  size_t Capacity = 1 << 13;
  /// Occupancy-slice ring capacity (per-node reservation intervals
  /// exported into the merged trace).
  size_t SliceCapacity = 1 << 16;
  /// Window [now, now + ReservedLookahead) the per-node `Reserved`
  /// fraction is computed over.
  Tick ReservedLookahead = 200;
};

/// Per-node utilization split of one frame. `Busy` and `Background`
/// are fractions of the *elapsed* window (previous frame tick .. this
/// frame tick) and sum to <= 1; `Reserved` is the busy fraction of the
/// *lookahead* window starting at the frame tick.
struct NodeOccupancy {
  double Busy = 0.0;
  double Background = 0.0;
  double Reserved = 0.0;
};

/// Per-flow job counts of one frame.
struct FlowSample {
  /// Admissible jobs still negotiating (no committed schedule yet).
  int64_t Queued = 0;
  /// Committed jobs whose completion has not fired yet.
  int64_t InFlight = 0;
};

/// One recorded frame (one ring slot).
struct TimeSeriesFrame {
  /// 0-based monotone frame number; survives ring wraparound.
  uint64_t Seq = 0;
  /// Simulation tick the frame was taken at.
  Tick At = 0;
  /// "sample" for periodic frames, else the event that forced the
  /// frame ("env.change", "commit", "reallocate", "dispatch", ...).
  /// Must be a string literal (the ring stores the pointer).
  const char *Reason = "sample";
  /// Probe values, parallel to `TimeSeries::metricNames()`.
  std::vector<double> Metrics;
  /// Per-node utilization, indexed by node id (empty when no
  /// occupancy provider is wired).
  std::vector<NodeOccupancy> Nodes;
  /// Per-flow counts, parallel to `TimeSeries::flowNames()`.
  std::vector<FlowSample> Flows;
};

/// One reservation interval exported as a per-node occupancy slice in
/// the merged trace ("job" vs "background" tracks per node).
struct OccupancySlice {
  unsigned Node = 0;
  Tick Begin = 0;
  Tick End = 0;
  /// "job" | "background" | "other"; must be a string literal.
  const char *Kind = "other";
  uint64_t Owner = 0;
};

/// The sim-time telemetry sampler. Most code records through the
/// process-wide `TimeSeries::global()` instance; tests may construct
/// their own.
///
/// Threading: thread-compatible, like a standard container: one thread
/// at a time. The program starts no second thread, and the
/// `single_thread_guard` test keeps it that way.
class TimeSeries {
public:
  static TimeSeries &global();

  /// Starts sampling into fresh rings; clears probes and providers.
  void enable(TimeSeriesConfig Config = TimeSeriesConfig());

  /// Stops sampling. Recorded frames stay exportable.
  void disable() { On = false; }

  /// Stamps the run provenance into every later export as a leading
  /// `# provenance ...` comment of the CSV. Cleared by enable() and
  /// reset().
  void setProvenance(RunProvenance P) { Prov = std::move(P); }
  RunProvenance provenance() const { return Prov; }

  /// The active configuration (as passed to enable()).
  TimeSeriesConfig config() const { return Config; }

  bool enabled() const { return On; }

  //===--------------------------------------------------------------------===//
  // Wiring (done by the run harness once the grid and flows exist)
  //===--------------------------------------------------------------------===//

  /// Registers one metric probe; \p Name must be a string literal and
  /// becomes the `series` column of the CSV export. \p Fn runs on the
  /// simulation thread at every frame and must be deterministic (no
  /// wall-clock values).
  void addProbe(const char *Name, std::function<double()> Fn);

  /// Registers the standard probe set over \p R: the deterministic
  /// job-lifecycle, metascheduler, environment-change and simulator
  /// counters, each exported as its *delta* since this call — so two
  /// runs in one process (with the process-global monotone registry)
  /// still produce identical series.
  void addDefaultProbes(Registry &R);

  /// \p Fn computes per-node utilization for the elapsed window
  /// [PrevAt, Now); it runs on the simulation thread at every frame.
  void setOccupancyProvider(
      std::function<std::vector<NodeOccupancy>(Tick PrevAt, Tick Now)> Fn);

  /// \p Fn computes per-flow counts; \p Names labels the flows (the
  /// `flow` column of the CSV export).
  void setFlowProvider(std::vector<std::string> Names,
                       std::function<std::vector<FlowSample>()> Fn);

  /// Drops probes and providers (end of a run, before the grid and
  /// managers they capture go out of scope). Frames survive.
  void clearProviders();

  //===--------------------------------------------------------------------===//
  // Sampling
  //===--------------------------------------------------------------------===//

  /// Simulator hook: called as the clock advances; takes a periodic
  /// frame when \p Now reaches the next sampling boundary. No-op (one
  /// load + branch) while disabled.
  void onTick(Tick Now) {
    if (enabled())
      tick(Now);
  }

  /// Event hook: forces a frame at \p Now tagged \p Reason (a string
  /// literal). Same-tick events with the same reason coalesce into one
  /// frame. No-op while disabled.
  void sampleEvent(Tick Now, const char *Reason) {
    if (enabled())
      event(Now, Reason);
  }

  /// Records one reservation interval for the per-node occupancy
  /// tracks of the merged trace (typically dumped once at run end).
  void addOccupancySlice(unsigned Node, Tick Begin, Tick End,
                         const char *Kind, uint64_t Owner);

  //===--------------------------------------------------------------------===//
  // Export
  //===--------------------------------------------------------------------===//

  /// Frames recorded since enable() (including overwritten ones).
  uint64_t recorded() const { return Frames.recorded(); }
  /// Frames lost to ring wraparound.
  uint64_t dropped() const { return Frames.dropped(); }
  /// Occupancy slices recorded / lost.
  uint64_t slicesRecorded() const { return Slices.recorded(); }
  uint64_t slicesDropped() const { return Slices.dropped(); }

  /// Copies the surviving frames out in record order.
  std::vector<TimeSeriesFrame> snapshot() const { return Frames.snapshot(); }
  std::vector<OccupancySlice> slices() const { return Slices.snapshot(); }

  /// Probe names in registration order.
  std::vector<std::string> metricNames() const;
  /// Flow names as registered by setFlowProvider.
  std::vector<std::string> flowNames() const { return FlowLabels; }

  /// Tidy long-form CSV, one row per (frame, series):
  /// `seq,tick,reason,series,node,flow,value`. Metric rows leave
  /// `node`/`flow` empty; per-node rows use series `util_busy` /
  /// `util_background` / `util_reserved`; per-flow rows use `queued` /
  /// `in_flight`. Byte-deterministic for a fixed seed.
  std::string csv() const;

  /// Writes csv() to \p Path; returns false on I/O failure.
  bool writeFile(const std::string &Path) const;

  /// Chrome trace-event objects (comma-separated, no surrounding
  /// brackets) rendering the frames as Perfetto counter tracks and the
  /// occupancy slices as per-node complete events, all on pid 2 with
  /// timestamps in simulation ticks. Feed to `Tracer::chromeJson`.
  std::string chromeTraceEvents() const;

  /// Drops everything and disables the sampler.
  void reset();

private:
  void tick(Tick Now);
  void event(Tick Now, const char *Reason);
  /// Captures one frame.
  void capture(Tick Now, const char *Reason);

  struct Probe {
    const char *Name;
    std::function<double()> Fn;
  };

  bool On = false;
  RunProvenance Prov;
  TimeSeriesConfig Config;
  std::vector<Probe> Probes;
  std::function<std::vector<NodeOccupancy>(Tick, Tick)> OccupancyProvider;
  std::vector<std::string> FlowLabels;
  std::function<std::vector<FlowSample>()> FlowProvider;
  Ring<TimeSeriesFrame> Frames;
  Ring<OccupancySlice> Slices;
  /// Next periodic boundary (a multiple of Config.SampleEvery).
  Tick NextSampleAt = 0;
  /// Tick of the most recent frame (the elapsed-window start).
  Tick LastFrameAt = 0;
  /// Reason of the most recent frame at LastFrameAt (coalescing).
  const char *LastReason = nullptr;
};

/// Publishes the global sampler's loss counters into \p R as
/// `cws_timeseries_frames_total` / `cws_timeseries_dropped` (and the
/// slice equivalents) gauges, so metrics snapshots show whether the
/// exported series is complete.
void publishTimeSeriesStats(Registry &R);

} // namespace obs
} // namespace cws

#endif // CWS_OBS_TIMESERIES_H

//===-- obs/TimeSeries.cpp - Sim-time telemetry sampler -------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "obs/TimeSeries.h"
#include "obs/Metrics.h"
#include "support/Check.h"
#include "support/File.h"
#include "support/Json.h"

#include <algorithm>
#include <cstring>

using namespace cws;
using namespace cws::obs;

TimeSeries &TimeSeries::global() {
  static TimeSeries T;
  return T;
}

void TimeSeries::enable(TimeSeriesConfig C) {
  CWS_CHECK(C.SampleEvery > 0, "sampling cadence must be positive");
  CWS_CHECK(C.Capacity > 0, "sampler needs a non-empty frame ring");
  Config = C;
  Probes.clear();
  OccupancyProvider = nullptr;
  FlowLabels.clear();
  FlowProvider = nullptr;
  Frames.reset(Config.Capacity);
  Slices.reset(Config.SliceCapacity);
  NextSampleAt = 0;
  LastFrameAt = 0;
  LastReason = nullptr;
  Prov = RunProvenance{};
  On = true;
}

void TimeSeries::reset() {
  disable();
  Probes.clear();
  OccupancyProvider = nullptr;
  FlowLabels.clear();
  FlowProvider = nullptr;
  Frames.reset(0);
  Slices.reset(0);
  NextSampleAt = 0;
  LastFrameAt = 0;
  LastReason = nullptr;
  Prov = RunProvenance{};
}

void TimeSeries::addProbe(const char *Name, std::function<double()> Fn) {
  Probes.push_back(Probe{Name, std::move(Fn)});
}

void TimeSeries::addDefaultProbes(Registry &R) {
  // Every probed counter is a count of deterministic *simulation*
  // decisions (never wall-clock time), exported as the delta since this
  // call so series from successive runs in one process agree.
  auto Delta = [this, &R](const char *Short, const char *Metric,
                          const char *Help) {
    Counter &C = R.counter(Metric, Help);
    uint64_t Base = C.value();
    addProbe(Short, [&C, Base] {
      return static_cast<double>(C.value() - Base);
    });
  };
  Delta("jobs_submitted", "cws_jobs_submitted_total",
        "jobs that entered the flow");
  Delta("jobs_admissible", "cws_jobs_admissible_total",
        "jobs whose arrival strategy had a feasible variant");
  Delta("jobs_committed", "cws_jobs_committed_total",
        "jobs with a committed schedule");
  Delta("jobs_rejected", "cws_jobs_rejected_total",
        "jobs rejected at negotiation (stale, unaffordable or raced)");
  Delta("jobs_invalidated", "cws_jobs_invalidated_total",
        "strategies that lost every fitting variant to background load");
  Delta("jobs_shift_recovered", "cws_jobs_shift_recovered_total",
        "stale schedules recovered by shifting them whole");
  Delta("jobs_reallocated", "cws_jobs_reallocated_total",
        "jobs committed only after a full reallocation");
  Delta("jobs_completed", "cws_jobs_completed_total",
        "jobs that ran to completion");
  Delta("meta_commits", "cws_meta_commits_total",
        "supporting schedules committed");
  Delta("meta_commit_conflicts", "cws_meta_commit_conflicts_total",
        "commits refused because a reserved slot was no longer free");
  Delta("meta_reallocations", "cws_meta_reallocations_total",
        "reallocations that delivered an admissible replacement strategy");
  Delta("meta_realloc_attempts", "cws_meta_realloc_attempts_total",
        "reallocation requests received, before the outcome is known");
  Delta("meta_realloc_repaired_shift",
        "cws_meta_realloc_repaired_total{stage=\"shift\"}",
        "reallocations resolved by shifting the one broken reservation");
  Delta("meta_realloc_repaired_dp",
        "cws_meta_realloc_repaired_total{stage=\"dp\"}",
        "reallocations resolved by re-running the DP for the broken works");
  Delta("meta_realloc_rebuilt", "cws_meta_realloc_rebuilt_total",
        "reallocations that fell through to the full strategy rebuild");
  Delta("meta_realloc_failed", "cws_meta_realloc_failed_total",
        "reallocations whose rebuild came back inadmissible");
  Delta("env_changes", "cws_env_changes_total",
        "background placements that changed the environment");
  Delta("env_scan_placements", "cws_env_scan_placements_total",
        "placements scanned re-validating strategies on env changes");
  Delta("sim_events", "cws_sim_events_total",
        "simulation events dispatched");
  Gauge &Depth = R.gauge("cws_sim_queue_depth",
                         "events pending in the simulator queue");
  addProbe("sim_queue_depth",
           [&Depth] { return static_cast<double>(Depth.value()); });
}

void TimeSeries::setOccupancyProvider(
    std::function<std::vector<NodeOccupancy>(Tick, Tick)> Fn) {
  OccupancyProvider = std::move(Fn);
}

void TimeSeries::setFlowProvider(std::vector<std::string> Names,
                                 std::function<std::vector<FlowSample>()> Fn) {
  FlowLabels = std::move(Names);
  FlowProvider = std::move(Fn);
}

void TimeSeries::clearProviders() {
  // Drop only the callables (they capture references into the run's
  // grid and managers); names stay so recorded frames still export.
  for (Probe &P : Probes)
    P.Fn = nullptr;
  OccupancyProvider = nullptr;
  FlowProvider = nullptr;
}

void TimeSeries::capture(Tick Now, const char *Reason) {
  TimeSeriesFrame &F = Frames.push();
  F.Seq = Frames.recorded() - 1;
  F.At = Now;
  F.Reason = Reason;
  F.Metrics.clear();
  for (const Probe &P : Probes)
    F.Metrics.push_back(P.Fn ? P.Fn() : 0.0);
  F.Nodes.clear();
  if (OccupancyProvider)
    F.Nodes = OccupancyProvider(LastFrameAt, Now);
  F.Flows.clear();
  if (FlowProvider)
    F.Flows = FlowProvider();
  LastFrameAt = Now;
  LastReason = Reason;
}

void TimeSeries::tick(Tick Now) {
  if (Now < NextSampleAt)
    return;
  NextSampleAt = (Now / Config.SampleEvery + 1) * Config.SampleEvery;
  capture(Now, "sample");
}

void TimeSeries::event(Tick Now, const char *Reason) {
  // Same-tick repeats of one event kind (e.g. several background
  // placements landing on one tick) coalesce into the frame already
  // taken.
  if (Frames.recorded() > 0 && LastFrameAt == Now && LastReason &&
      std::strcmp(LastReason, Reason) == 0)
    return;
  capture(Now, Reason);
}

void TimeSeries::addOccupancySlice(unsigned Node, Tick Begin, Tick End,
                                   const char *Kind, uint64_t Owner) {
  if (Begin >= End)
    return;
  if (Slices.capacity() > 0)
    Slices.push() = OccupancySlice{Node, Begin, End, Kind, Owner};
}

std::vector<std::string> TimeSeries::metricNames() const {
  std::vector<std::string> Out;
  for (const Probe &P : Probes)
    Out.push_back(P.Name);
  return Out;
}

//===----------------------------------------------------------------------===//
// Export
//===----------------------------------------------------------------------===//

std::string TimeSeries::csv() const {
  std::vector<TimeSeriesFrame> FrameList = snapshot();
  std::vector<std::string> Metrics = metricNames();
  std::vector<std::string> Flows = flowNames();
  std::string Out = provenanceCsvComment(provenance());
  Out += "seq,tick,reason,series,node,flow,value\n";
  for (const TimeSeriesFrame &F : FrameList) {
    std::string Prefix = std::to_string(F.Seq) + "," +
                         std::to_string(F.At) + "," +
                         (F.Reason ? F.Reason : "") + ",";
    size_t N = F.Metrics.size() < Metrics.size() ? F.Metrics.size()
                                                 : Metrics.size();
    for (size_t I = 0; I < N; ++I)
      Out += Prefix + Metrics[I] + ",,," + renderNumber(F.Metrics[I]) + "\n";
    for (size_t I = 0; I < F.Nodes.size(); ++I) {
      const NodeOccupancy &O = F.Nodes[I];
      std::string Node = std::to_string(I);
      Out += Prefix + "util_busy," + Node + ",," + renderNumber(O.Busy) +
             "\n";
      Out += Prefix + "util_background," + Node + ",," +
             renderNumber(O.Background) + "\n";
      Out += Prefix + "util_reserved," + Node + ",," +
             renderNumber(O.Reserved) + "\n";
    }
    size_t K = F.Flows.size() < Flows.size() ? F.Flows.size() : Flows.size();
    for (size_t I = 0; I < K; ++I) {
      Out += Prefix + "queued,," + Flows[I] + "," +
             std::to_string(F.Flows[I].Queued) + "\n";
      Out += Prefix + "in_flight,," + Flows[I] + "," +
             std::to_string(F.Flows[I].InFlight) + "\n";
    }
  }
  return Out;
}

bool TimeSeries::writeFile(const std::string &Path) const {
  return writeTextFile(Path, csv());
}

std::string TimeSeries::chromeTraceEvents() const {
  std::vector<TimeSeriesFrame> FrameList = snapshot();
  std::vector<OccupancySlice> SliceList = slices();
  std::vector<std::string> Metrics = metricNames();
  std::vector<std::string> Flows = flowNames();
  std::string Out;
  auto Emit = [&Out](const std::string &Event) {
    if (!Out.empty())
      Out += ",";
    Out += Event;
  };
  // Everything lives on pid 2 with timestamps in simulation ticks, so
  // the sim-time tracks group separately from the wall-clock spans of
  // pid 1.
  Emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
       "\"args\":{\"name\":\"sim-time (ticks)\"}}");
  Emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,"
       "\"args\":{\"name\":\"metrics\"}}");
  Emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":1,"
       "\"args\":{\"name\":\"flows + grid\"}}");
  size_t NodeCount = 0;
  for (const TimeSeriesFrame &F : FrameList)
    NodeCount = std::max(NodeCount, F.Nodes.size());
  for (const OccupancySlice &S : SliceList)
    NodeCount = std::max(NodeCount, static_cast<size_t>(S.Node) + 1);
  for (size_t I = 0; I < NodeCount; ++I)
    Emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":" +
         std::to_string(100 + I) + ",\"args\":{\"name\":\"node " +
         std::to_string(I) + "\"}}");
  for (const TimeSeriesFrame &F : FrameList) {
    std::string Ts = std::to_string(F.At);
    size_t N = F.Metrics.size() < Metrics.size() ? F.Metrics.size()
                                                 : Metrics.size();
    for (size_t I = 0; I < N; ++I) {
      Emit("{\"name\":" + json::quote(Metrics[I]) +
           ",\"ph\":\"C\",\"ts\":" + Ts +
           ",\"pid\":2,\"tid\":0,\"args\":{\"value\":" +
           renderNumber(F.Metrics[I]) + "}}");
    }
    size_t K = F.Flows.size() < Flows.size() ? F.Flows.size() : Flows.size();
    for (size_t I = 0; I < K; ++I) {
      Emit("{\"name\":" + json::quote("flow " + Flows[I] + " jobs") +
           ",\"ph\":\"C\",\"ts\":" + Ts +
           ",\"pid\":2,\"tid\":1,\"args\":{\"queued\":" +
           std::to_string(F.Flows[I].Queued) +
           ",\"in_flight\":" + std::to_string(F.Flows[I].InFlight) + "}}");
    }
    if (!F.Nodes.empty()) {
      double Busy = 0, Background = 0;
      for (const NodeOccupancy &O : F.Nodes) {
        Busy += O.Busy;
        Background += O.Background;
      }
      double Scale = 100.0 / static_cast<double>(F.Nodes.size());
      Emit("{\"name\":\"grid utilization %\",\"ph\":\"C\",\"ts\":" + Ts +
           ",\"pid\":2,\"tid\":1,\"args\":{\"busy\":" +
           renderNumber(Busy * Scale) + ",\"background\":" +
           renderNumber(Background * Scale) + "}}");
    }
  }
  for (const OccupancySlice &S : SliceList)
    Emit("{\"name\":" + json::quote(S.Kind ? S.Kind : "other") +
         ",\"cat\":\"occupancy\",\"ph\":\"X\",\"ts\":" +
         std::to_string(S.Begin) +
         ",\"dur\":" + std::to_string(S.End - S.Begin) +
         ",\"pid\":2,\"tid\":" + std::to_string(100 + S.Node) +
         ",\"args\":{\"owner\":" + std::to_string(S.Owner) + "}}");
  return Out;
}

void cws::obs::publishTimeSeriesStats(Registry &R) {
  const TimeSeries &T = TimeSeries::global();
  R.gauge("cws_timeseries_frames_total",
          "time-series frames recorded since enable")
      .set(static_cast<int64_t>(T.recorded()));
  R.gauge("cws_timeseries_dropped",
          "time-series frames lost to ring wraparound")
      .set(static_cast<int64_t>(T.dropped()));
  R.gauge("cws_timeseries_slices_total",
          "occupancy slices recorded since enable")
      .set(static_cast<int64_t>(T.slicesRecorded()));
  R.gauge("cws_timeseries_slices_dropped",
          "occupancy slices lost to ring wraparound")
      .set(static_cast<int64_t>(T.slicesDropped()));
}

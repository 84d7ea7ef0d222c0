//===-- metrics/Export.cpp - CSV export of schedules and stats ------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "metrics/Export.h"
#include "job/Job.h"
#include "obs/Journal.h"
#include "obs/Profiler.h"
#include "obs/Trace.h"
#include "support/File.h"

#include <cstdio>

using namespace cws;

std::string cws::distributionCsv(const Job &J, const Distribution &D) {
  std::string Out = "task,name,node,start,end,cost\n";
  char Buf[160];
  for (const auto &P : D.placements()) {
    std::snprintf(Buf, sizeof(Buf), "%u,%s,%u,%lld,%lld,%.3f\n", P.TaskId,
                  J.task(P.TaskId).Name.c_str(), P.NodeId,
                  static_cast<long long>(P.Start),
                  static_cast<long long>(P.End), P.EconomicCost);
    Out += Buf;
  }
  return Out;
}

std::string cws::strategyCsv(const Strategy &S) {
  std::string Out =
      "variant,level_perf,bias,feasible,start,makespan,econ_cost,cf,"
      "collisions\n";
  char Buf[200];
  size_t Idx = 0;
  for (const auto &V : S.variants()) {
    const Distribution &D = V.Result.Dist;
    if (V.feasible())
      std::snprintf(Buf, sizeof(Buf), "%zu,%.3f,%s,1,%lld,%lld,%.3f,%lld,%zu\n",
                    Idx, V.LevelPerf, optimizationBiasName(V.Bias),
                    static_cast<long long>(D.startTime()),
                    static_cast<long long>(D.makespan()), D.economicCost(),
                    static_cast<long long>(
                        D.costFunction(S.scheduledJob())),
                    V.Result.Collisions.size());
    else
      std::snprintf(Buf, sizeof(Buf), "%zu,%.3f,%s,0,,,,,%zu\n", Idx,
                    V.LevelPerf, optimizationBiasName(V.Bias),
                    V.Result.Collisions.size());
    Out += Buf;
    ++Idx;
  }
  return Out;
}

std::string cws::voStatsCsv(const std::vector<VoJobStats> &Stats) {
  std::string Out =
      "job,arrival,deadline,admissible,committed,rejected,reallocated,"
      "switched,forecast_start,actual_start,completion,cost,cf,ttl,"
      "ttl_closed,collisions\n";
  char Buf[256];
  for (const auto &St : Stats) {
    std::snprintf(
        Buf, sizeof(Buf),
        "%u,%lld,%lld,%d,%d,%d,%d,%d,%lld,%lld,%lld,%.3f,%lld,%lld,%d,%zu\n",
        St.JobId, static_cast<long long>(St.Arrival),
        static_cast<long long>(St.Deadline), St.Admissible, St.Committed,
        St.Rejected, St.Reallocated, St.Switched,
        static_cast<long long>(St.ForecastStart),
        static_cast<long long>(St.ActualStart),
        static_cast<long long>(St.Completion), St.Cost,
        static_cast<long long>(St.Cf), static_cast<long long>(St.Ttl),
        St.TtlClosed, St.Collisions);
    Out += Buf;
  }
  return Out;
}

bool cws::writeMetricsSnapshot(const std::string &Path,
                               const obs::Registry &R) {
  // Snapshots of the global registry also carry the tracer's and
  // journal's loss counters, so trace/journal incompleteness is visible
  // in the same export.
  if (&R == &obs::Registry::global()) {
    obs::publishTraceStats(obs::Registry::global());
    obs::publishJournalStats(obs::Registry::global());
  }
  return writeTextFile(Path, R.prometheusText());
}

void ObsArtifacts::addFlags(Flags &F) {
  F.addString("trace", &Trace,
              "write a Chrome trace-event JSON timeline of the run");
  F.addString("trace-categories", &TraceCategories,
              "record only these trace categories, comma-separated "
              "(e.g. core,flow; empty = all)");
  F.addString("metrics", &Metrics,
              "write a metrics snapshot (Prometheus text)");
  F.addString("journal", &Journal,
              "write the per-job decision journal as JSONL "
              "(inspect with cws-explain)");
  F.addString("timeseries", &TimeSeries,
              "write the telemetry series as tidy CSV "
              "(inspect with cws-report)");
  F.addString("profile", &Profile,
              "write the phase profile (where wall time and work went) "
              "as JSON; inspect with cws-report --profile");
}

void ObsArtifacts::start(const obs::RunProvenance &Prov,
                         const obs::TimeSeriesConfig &Sampling) const {
  if (!Trace.empty()) {
    obs::Tracer::global().setCategoryFilter(TraceCategories);
    obs::Tracer::global().enable();
  }
  if (!Journal.empty())
    obs::Journal::global().enable();
  if (!Profile.empty())
    obs::Profiler::global().enable();
  if (!TimeSeries.empty())
    obs::TimeSeries::global().enable(Sampling);
  obs::Journal::global().setProvenance(Prov);
  obs::TimeSeries::global().setProvenance(Prov);
  obs::Profiler::global().setProvenance(Prov);
}

/// Prints "<Tool>: wrote N <Kind> <Units> to <Path>" plus the ring's
/// losses and \p Note.
static void noteWritten(const char *Tool, const char *Kind, const char *Units,
                        uint64_t Recorded, uint64_t Dropped,
                        const std::string &Path, const std::string &Note) {
  std::fprintf(stderr, "%s: wrote %llu %s %s to %s", Tool,
               static_cast<unsigned long long>(Recorded - Dropped), Kind,
               Units, Path.c_str());
  if (Dropped > 0)
    std::fprintf(stderr, " (%llu older %s dropped by the ring)",
                 static_cast<unsigned long long>(Dropped), Units);
  std::fprintf(stderr, "%s\n", Note.c_str());
}

int ObsArtifacts::finish(const char *Tool) const {
  auto CannotWrite = [Tool](const char *What, const std::string &Path) {
    std::fprintf(stderr, "%s: cannot write %s '%s'\n", Tool, What,
                 Path.c_str());
    return 2;
  };
  // Stop sampling before any export; the counter tracks, occupancy
  // slices and per-phase summary slices merge into the trace file next
  // to the wall-clock spans.
  std::string Extra;
  obs::TimeSeries &Ts = obs::TimeSeries::global();
  if (!TimeSeries.empty()) {
    Ts.disable();
    Extra = Ts.chromeTraceEvents();
  }
  if (!Profile.empty()) {
    obs::Profiler &P = obs::Profiler::global();
    P.disable();
    std::string PhaseExtra = P.chromeTraceEvents();
    if (!PhaseExtra.empty())
      Extra += (Extra.empty() ? "" : ",") + PhaseExtra;
    if (!P.writeJson(Profile))
      return CannotWrite("profile", Profile);
    std::fprintf(stderr, "%s: wrote %zu profiled phases to %s\n", Tool,
                 P.snapshot().size(), Profile.c_str());
  }
  if (!Trace.empty()) {
    obs::Tracer &Tr = obs::Tracer::global();
    Tr.disable();
    if (!Tr.writeJson(Trace, Extra))
      return CannotWrite("trace", Trace);
    std::string Masked;
    if (Tr.filtered() > 0)
      Masked = " (" + std::to_string(Tr.filtered()) +
               " events masked by --trace-categories)";
    noteWritten(Tool, "trace", "events", Tr.recorded(), Tr.dropped(), Trace,
                Masked);
  }
  if (!Journal.empty()) {
    obs::Journal &Jn = obs::Journal::global();
    Jn.disable();
    if (!Jn.writeJsonl(Journal))
      return CannotWrite("journal", Journal);
    noteWritten(Tool, "journal", "events", Jn.recorded(), Jn.dropped(),
                Journal, "");
  }
  if (!TimeSeries.empty()) {
    if (!Ts.writeFile(TimeSeries))
      return CannotWrite("time series", TimeSeries);
    obs::publishTimeSeriesStats(obs::Registry::global());
    noteWritten(Tool, "telemetry", "frames", Ts.recorded(), Ts.dropped(),
                TimeSeries, "");
  }
  // writeMetricsSnapshot publishes the tracer's and journal's loss
  // counters into the snapshot it writes.
  if (!Metrics.empty() && !writeMetricsSnapshot(Metrics))
    return CannotWrite("metrics", Metrics);
  return 0;
}

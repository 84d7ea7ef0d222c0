//===-- bench/reg_obs_overhead.cpp - Observability overhead guard ---------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures what the observability layer costs on the scheduling hot
/// path: `scheduleJob` throughput with tracing disabled vs enabled,
/// plus the raw per-call price of a span with the tracer and the
/// profiler off, a counter add, a guarded disabled-journal append and a
/// sampler tick. The guard budget and the measured costs are emitted
/// through the harness, so the overhead contract itself appears in the
/// `BENCH_*.json` trajectory; breaching the budget fails a recorded
/// check — the contract that lets instrumentation live in hot paths.
///
/// Registered with Profile=false: this bench prices the *disabled*
/// observability path, so the harness must not switch the profiler on
/// around it.
///
//===----------------------------------------------------------------------===//

#include "core/Scheduler.h"
#include "harness.h"
#include "job/Job.h"
#include "obs/Journal.h"
#include "obs/Metrics.h"
#include "obs/Profiler.h"
#include "obs/TimeSeries.h"
#include "obs/Trace.h"
#include "resource/Grid.h"
#include "resource/Network.h"

#include <chrono>
#include <string>

using namespace cws;

namespace {

/// The disabled-path budget: an order of magnitude above what one
/// span + counter + guarded append + sampler tick costs on any current
/// machine, so a trip means someone put a lock or an allocation on the
/// disabled path.
constexpr double GuardBudgetNs = 50.0;

Job makeBenchJob() {
  Job J;
  unsigned Prev = J.addTask("t0", 2, 20);
  for (int I = 1; I < 8; ++I) {
    unsigned T =
        J.addTask("t" + std::to_string(I), 1 + I % 3, 10 * (1 + I % 3));
    J.addEdge(Prev, T, 1);
    // A fork every third task makes several critical works per job.
    if (I % 3 == 0) {
      unsigned Side = J.addTask("s" + std::to_string(I), 2, 20);
      J.addEdge(Prev, Side, 1);
      J.addEdge(Side, T, 1);
    }
    Prev = T;
  }
  J.setDeadline(400);
  return J;
}

Grid makeBenchGrid() {
  Grid G;
  for (double Perf : {1.0, 1.0, 0.8, 0.8, 0.5, 0.5, 0.33, 0.33})
    G.addNode(Perf);
  return G;
}

/// Wall-clock nanoseconds of \p Fn.
template <typename F> double timeNs(F &&Fn) {
  auto T0 = std::chrono::steady_clock::now();
  Fn();
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - T0)
          .count());
}

} // namespace

CWS_BENCH(obs_overhead,
          "disabled-path observability cost on the scheduling hot path",
          /*Reps=*/3, /*Warmup=*/0, /*Profile=*/false) {
  const Job J = makeBenchJob();
  const Grid Env = makeBenchGrid();
  const Network Net;
  SchedulerConfig Config;

  constexpr int Warmup = 50;
  constexpr int Iters = 400;
  constexpr int PrimIters = 2000000;
  Ctx.setConfig("sched_iters=" + std::to_string(Iters) +
                "\nprim_iters=" + std::to_string(PrimIters) + "\n");

  size_t Feasible = 0;
  auto RunBatch = [&](int N) {
    for (int I = 0; I < N; ++I)
      Feasible += scheduleJob(J, Env, Net, Config, /*Owner=*/1, 0).Feasible;
  };

  // --- scheduleJob throughput, tracing disabled. ---
  obs::Tracer::global().reset();
  RunBatch(Warmup);
  double DisabledNs = timeNs([&] { RunBatch(Iters); }) / Iters;

  // --- scheduleJob throughput, tracing enabled. ---
  obs::Tracer::global().enable(1 << 20);
  RunBatch(Warmup);
  double EnabledNs = timeNs([&] { RunBatch(Iters); }) / Iters;
  uint64_t EventsPerCall = obs::Tracer::global().recorded() / (Warmup + Iters);
  obs::Tracer::global().reset();

  // --- Raw disabled-mode primitives: one span (tracer and profiler
  // off) + one counter add + one guarded journal append + one sampler
  // tick, exactly as the instrumentation sites are written. ---
  obs::Counter &C = obs::Registry::global().counter("bench_obs_probe_total");
  obs::Journal &Jn = obs::Journal::global();
  obs::TimeSeries &Ts = obs::TimeSeries::global();
  obs::Profiler &P = obs::Profiler::global();
  Jn.reset();
  Ts.reset();
  P.reset();
  double PrimNs = timeNs([&] {
                    for (int I = 0; I < PrimIters; ++I) {
                      obs::Span S("bench", "probe");
                      C.add();
                      if (Jn.enabled())
                        Jn.append(obs::JournalKind::Note, I, I, {{"i", I}});
                      Ts.onTick(I);
                    }
                  }) /
                  PrimIters;
  Ctx.check("disabled journal records nothing off the bench probe",
            Jn.recorded() == 0);
  Ctx.check("disabled sampler takes no frames off the bench probe",
            Ts.recorded() == 0);
  Ctx.check("disabled profiler accumulates nothing off the bench probe",
            P.snapshot().empty());
  Ctx.check("disabled-mode primitives fit the budget",
            PrimNs < GuardBudgetNs);

  Ctx.setWork("feasible_results", Feasible);
  Ctx.setWork("trace_events_per_schedule", EventsPerCall);
  Ctx.addMetric("guard_budget_ns", GuardBudgetNs);
  Ctx.addMetric("prim_disabled_ns", PrimNs);
  Ctx.addMetric("schedule_disabled_ns", DisabledNs);
  Ctx.addMetric("schedule_traced_ns", EnabledNs);
  Ctx.addMetric("trace_overhead_ratio", EnabledNs / DisabledNs);
}

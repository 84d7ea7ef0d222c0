//===-- sim/Simulator.cpp - Discrete event simulation kernel --------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"
#include "obs/Journal.h"
#include "obs/Metrics.h"
#include "obs/TimeSeries.h"
#include "obs/Trace.h"
#include "support/Check.h"

#include <algorithm>
#include <chrono>

using namespace cws;

namespace {
struct SimMetrics {
  obs::Counter &Events = obs::Registry::global().counter(
      "cws_sim_events_total", "simulation events dispatched");
  obs::Gauge &QueueDepth = obs::Registry::global().gauge(
      "cws_sim_queue_depth", "events pending in the simulator queue");
  obs::Gauge &VirtualTicks = obs::Registry::global().gauge(
      "cws_sim_virtual_time_ticks",
      "simulation clock at the end of the last run()");
  obs::Gauge &WallMicros = obs::Registry::global().gauge(
      "cws_sim_wall_micros",
      "wall-clock duration of the last run() (microseconds)");
  static SimMetrics &get() {
    static SimMetrics M;
    return M;
  }
};
} // namespace

void Simulator::at(Tick At, EventFn Fn) {
  Events.schedule(std::max(At, Now), std::move(Fn));
}

void Simulator::after(Tick Delay, EventFn Fn) {
  CWS_CHECK(Delay >= 0, "cannot schedule into the past");
  Events.schedule(Now + Delay, std::move(Fn));
}

size_t Simulator::run(Tick Until) {
  SimMetrics &M = SimMetrics::get();
  obs::Span RunSpan("sim", "sim.run");
  auto T0 = std::chrono::steady_clock::now();
  size_t Executed = 0;
  obs::TimeSeries &Ts = obs::TimeSeries::global();
  while (!Events.empty() && Events.nextTime() <= Until) {
    // Advance the clock before dispatching so handlers scheduling
    // relative work (after()) see the firing time as now().
    Now = Events.nextTime();
    // Periodic telemetry frames are taken at the tick boundary, before
    // the event dispatches, so they see the state the tick starts from.
    Ts.onTick(Now);
    {
      obs::Span TickSpan("sim", "sim.tick", "vt", Now);
      Events.runNext();
    }
    ++Executed;
    M.Events.add();
    M.QueueDepth.set(static_cast<int64_t>(Events.size()));
  }
  M.VirtualTicks.set(Now);
  M.WallMicros.set(std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::steady_clock::now() - T0)
                       .count());
  RunSpan.arg("events", static_cast<int64_t>(Executed));
  RunSpan.arg("virtual_ticks", Now);
  obs::Journal &Jn = obs::Journal::global();
  if (Jn.enabled())
    Jn.append(obs::JournalKind::Note, -1, Now,
              {{"events", static_cast<int64_t>(Executed)}}, "sim.run");
  if (Events.empty() || Now > Until)
    return Executed;
  // The next event lies beyond the horizon: advance the clock to it so a
  // subsequent run() resumes consistently.
  Now = std::max(Now, Until);
  return Executed;
}

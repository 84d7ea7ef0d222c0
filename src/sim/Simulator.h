//===-- sim/Simulator.h - Discrete event simulation kernel ------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The discrete event simulation kernel driving the job-flow experiments:
/// a monotonically advancing clock plus an event queue. The paper's own
/// evaluation is a simulation ("we have implemented a simulation
/// environment of the scheduling framework"); this is our substitute.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_SIM_SIMULATOR_H
#define CWS_SIM_SIMULATOR_H

#include "sim/EventQueue.h"
#include "sim/Time.h"

namespace cws {

/// Discrete event simulator with a monotone clock.
class Simulator {
public:
  /// Current simulation time.
  Tick now() const { return Now; }

  /// Schedules \p Fn at absolute time \p At (clamped to now()).
  void at(Tick At, EventFn Fn);

  /// Schedules \p Fn after \p Delay ticks.
  void after(Tick Delay, EventFn Fn);

  /// Schedules \p Fn at the current tick, behind every event already
  /// queued for it (same-tick events fire in insertion order). This is
  /// the job-flow level's tick barrier: events accumulate a batch and
  /// arm one end-of-tick drain that sees the whole tick's arrivals.
  /// Events inserted *after* the drain (including by the drain itself)
  /// fire later the same tick, so a drain that triggers more same-tick
  /// work simply re-arms.
  void atEndOfTick(EventFn Fn) { at(Now, std::move(Fn)); }

  /// Runs until the queue drains or the clock passes \p Until.
  /// Returns the number of events executed.
  size_t run(Tick Until = TickMax);

  /// Number of pending events.
  size_t pending() const { return Events.size(); }

private:
  EventQueue Events;
  Tick Now = 0;
};

} // namespace cws

#endif // CWS_SIM_SIMULATOR_H

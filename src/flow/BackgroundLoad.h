//===-- flow/BackgroundLoad.h - Independent local job flows -----*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The independent local job flows that make the environment dynamic:
/// every processor node keeps receiving jobs from its own local users,
/// eating free slots over time. Faster nodes are more demanded, so the
/// per-node arrival gap depends on the performance group — this is what
/// ages strategies (their time-to-live) and forces supporting-schedule
/// switches.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_FLOW_BACKGROUNDLOAD_H
#define CWS_FLOW_BACKGROUNDLOAD_H

#include "resource/Grid.h"
#include "sim/Simulator.h"
#include "support/Prng.h"

#include <cstddef>
#include <functional>

namespace cws {

/// Arrival and duration model of the background flows.
struct BackgroundConfig {
  /// Mean gap between background jobs on one node, per group (fast
  /// nodes are the most demanded).
  Tick MeanGapFast = 10;
  Tick MeanGapMedium = 18;
  Tick MeanGapSlow = 30;
  /// Background job duration, uniform.
  Tick DurLo = 4;
  Tick DurHi = 24;
  /// A node whose next free slot is further away than this rejects the
  /// background job (its local queue is "full").
  Tick MaxLookahead = 400;
};

/// Owner id used for all background reservations.
inline constexpr OwnerId BackgroundOwner = 1;

/// Drives background arrivals on every node of a grid.
class BackgroundLoad {
public:
  /// \p Observer (optional) fires after every background arrival — the
  /// hook job managers use to re-validate their strategies.
  BackgroundLoad(Grid &Env, Simulator &Sim, BackgroundConfig Config,
                 Prng Rng);

  /// Starts per-node arrival processes until \p Until.
  void start(Tick Until);

  void setObserver(std::function<void(Tick)> Fn) { Observer = std::move(Fn); }

  /// Background jobs actually placed so far.
  size_t placed() const { return Placed; }

private:
  Tick meanGap(PerfGroup Group) const;
  void scheduleNext(unsigned NodeId, Tick Until);

  Grid &Env;
  Simulator &Sim;
  BackgroundConfig Config;
  Prng Rng;
  std::function<void(Tick)> Observer;
  size_t Placed = 0;
};

} // namespace cws

#endif // CWS_FLOW_BACKGROUNDLOAD_H

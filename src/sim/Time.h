//===-- sim/Time.h - Simulation time ----------------------------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Integral simulation time. The paper reasons in whole "time units"
/// (Fig. 2 timelines, the Ti estimation table), so CWS uses 64-bit ticks
/// throughout: comparisons are exact and collisions are unambiguous.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_SIM_TIME_H
#define CWS_SIM_TIME_H

#include <cstdint>

namespace cws {

/// One simulated time unit.
using Tick = int64_t;

/// Sentinel for "no deadline" / "never".
inline constexpr Tick TickMax = INT64_MAX / 4;

/// std::ceil(X) as a tick, for |X| < 2^63, without a libm call: the cast
/// truncates toward zero, and a fraction left above it adds one. Every
/// double of magnitude 2^52 or more is an integer, so there the cast is
/// exact and nothing is added.
constexpr Tick ceilTicks(double X) {
  auto T = static_cast<Tick>(X);
  return T + (static_cast<double>(T) < X);
}

} // namespace cws

#endif // CWS_SIM_TIME_H

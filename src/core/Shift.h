//===-- core/Shift.h - Distribution shifting --------------------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-schedule shifting: when a supporting schedule has gone stale,
/// the cheapest recovery is often to move the entire co-allocation a
/// few ticks later — precedence and co-allocation structure are
/// preserved by construction, only the start changes. The negotiation
/// layer tries this before asking the metascheduler for a full
/// reallocation.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_CORE_SHIFT_H
#define CWS_CORE_SHIFT_H

#include "core/Distribution.h"

#include <cstdint>
#include <optional>

namespace cws {

class Grid;

/// A copy of \p D with every placement moved \p Delta ticks later
/// (Delta may be negative if nothing becomes negative). Delta = 0 is a
/// pinned fast path: the copy is placement-for-placement identical to
/// \p D with no per-placement recomputation.
Distribution shiftDistribution(const Distribution &D, Tick Delta);

/// The smallest Delta >= 0 such that every placement of \p D shifted by
/// Delta is free in \p G (reservations of \p Ignore do not block) and
/// the shifted makespan still meets \p Deadline. Returns std::nullopt
/// when no such shift exists. An already-feasible distribution is a
/// pinned Delta = 0 fast path — checked first, with no side effects, so
/// recovery code can rely on "already fits" being a strict no-op.
/// Runs in O(conflicts x placements); each blocked placement reads only
/// the intervals that overlap it, and when \p Scanned is set their
/// number is added to it.
std::optional<Tick> minimalFeasibleShift(const Distribution &D, const Grid &G,
                                         Tick Deadline, OwnerId Ignore = 0,
                                         uint64_t *Scanned = nullptr);

} // namespace cws

#endif // CWS_CORE_SHIFT_H

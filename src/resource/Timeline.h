//===-- resource/Timeline.h - Node reservation calendar ---------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-node reservation calendar. A task placement in a distribution is a
/// wall-time interval `[Start, End)` reserved in the local batch system
/// (the paper's advance reservations [20]); the timeline stores the
/// non-overlapping busy intervals of one processor node and answers
/// earliest-fit queries for the DP allocator and the backfilling policies.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_RESOURCE_TIMELINE_H
#define CWS_RESOURCE_TIMELINE_H

#include "sim/Time.h"

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace cws {

/// Identifies who holds a reservation (a task, a batch job, background
/// load...). 0 is reserved for "nobody".
using OwnerId = uint64_t;

/// A half-open busy interval [Begin, End) on one node.
struct Interval {
  Tick Begin;
  Tick End;
  OwnerId Owner;
};

/// Sorted, non-overlapping set of busy intervals with reservation
/// operations.
class Timeline {
public:
  /// True when [B, E) overlaps no busy interval. Empty ranges are free.
  bool isFree(Tick B, Tick E) const;

  /// Like isFree, but intervals owned by \p Except do not count as busy
  /// (used to re-validate a schedule against everyone else's load).
  bool isFreeFor(Tick B, Tick E, OwnerId Except) const;

  /// Reserves [B, E) for \p Owner; fails (returns false) on any overlap.
  bool reserve(Tick B, Tick E, OwnerId Owner);

  /// Earliest T >= NotBefore such that [T, T + Dur) is free.
  Tick earliestFit(Tick NotBefore, Tick Dur) const;

  /// Removes every interval owned by \p Owner; returns how many.
  size_t releaseOwner(OwnerId Owner);

  /// Removes the exact interval [B, E) of \p Owner; returns false when
  /// no such reservation exists.
  bool release(Tick B, Tick E, OwnerId Owner);

  /// First busy interval overlapping [B, E), or nullptr.
  const Interval *firstOverlap(Tick B, Tick E) const;

  /// Every busy interval with End > B and Begin < E, in order: the ones
  /// overlapping [B, E). They are contiguous from the first interval
  /// that ends after B, so the range is found without reading the
  /// intervals that ended by B.
  std::span<const Interval> overlapping(Tick B, Tick E) const;

  /// Busy ticks within [From, To).
  Tick busyTicks(Tick From, Tick To) const;

  /// Busy ticks within [From, To) counting only intervals whose owner
  /// lies in [MinOwner, MaxOwner] — splits utilization by owner class
  /// (background load vs jobs) for the telemetry sampler.
  Tick busyTicksOf(Tick From, Tick To, OwnerId MinOwner,
                   OwnerId MaxOwner) const;

  /// Busy fraction of [From, To); 0 for an empty window.
  double utilization(Tick From, Tick To) const;

  /// All busy intervals, ordered by Begin.
  const std::vector<Interval> &intervals() const { return Busy; }

  /// Drops everything.
  void clear() { Busy.clear(); }

  /// Becomes the intervals of \p From that end after \p Horizon, in this
  /// timeline's storage; returns how many it copied. A query that starts
  /// at or after the horizon reads only intervals that end after its
  /// start, so `isFree`, `isFreeFor`, `firstOverlap`, `earliestFit`,
  /// `busyTicks`, `reserve` and `release` answer on the copy as on
  /// \p From.
  size_t assignLive(const Timeline &From, Tick Horizon);

private:
  /// Index of the first interval with End > T.
  size_t lowerBound(Tick T) const;

  std::vector<Interval> Busy;
};

} // namespace cws

#endif // CWS_RESOURCE_TIMELINE_H

//===-- core/Distribution.h - Supporting schedules --------------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Distribution is one element of a scheduling strategy:
///   <Task 1 / Allocation i, [Start 1, End 1]>, ...,
///   <Task N / Allocation j, [Start N, End N]>
/// i.e. a coordinated allocation of every task of a compound job to a
/// processor node with a wall-time reservation.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_CORE_DISTRIBUTION_H
#define CWS_CORE_DISTRIBUTION_H

#include "resource/Timeline.h"
#include "sim/Time.h"

#include <cstddef>
#include <optional>
#include <vector>

namespace cws {

class Grid;
class Job;

/// One task's allocation inside a distribution.
struct Placement {
  unsigned TaskId;
  unsigned NodeId;
  /// Wall-time reservation [Start, End) in the local batch system.
  Tick Start;
  Tick End;
  /// Quota units paid for the node occupancy plus inbound transfers.
  double EconomicCost;

  Tick loadTicks() const { return End - Start; }
};

/// A complete (or failed/partial) schedule of one compound job.
class Distribution {
public:
  /// Adds a placement; at most one per task.
  void add(const Placement &P);

  /// Makes room for \p Count placements, so a schedule of a job with
  /// \p Count tasks allocates its placements once.
  void reserve(size_t Count) { Places.reserve(Count); }

  /// The placement of \p TaskId, or nullptr when not placed.
  const Placement *find(unsigned TaskId) const;

  /// Removes the placement of \p TaskId (collision repair); returns the
  /// removed placement, or std::nullopt when the task was not placed.
  std::optional<Placement> remove(unsigned TaskId);

  const std::vector<Placement> &placements() const { return Places; }
  size_t size() const { return Places.size(); }
  bool empty() const { return Places.empty(); }

  /// True when every task of \p J is placed.
  bool covers(const Job &J) const;

  /// Latest End over all placements (0 when empty).
  Tick makespan() const;

  /// Earliest Start over all placements (0 when empty).
  Tick startTime() const;

  /// Sum of per-placement economic costs.
  double economicCost() const;

  /// The paper's cost function CF = sum of ceil(V / T) over placements.
  int64_t costFunction(const Job &J) const;

  /// True when every reservation interval is currently free in \p G —
  /// i.e. this supporting schedule is still usable as-is. Intervals
  /// owned by \p Ignore (e.g. this very job's committed variant) do not
  /// count as busy.
  bool fitsGrid(const Grid &G, OwnerId Ignore = 0) const;

  /// Reserves every placement in \p G for \p Owner. Rolls back and
  /// returns false if any interval is taken.
  bool commit(Grid &G, OwnerId Owner) const;

private:
  std::vector<Placement> Places;
};

} // namespace cws

#endif // CWS_CORE_DISTRIBUTION_H

//===-- resource/Grid.h - The distributed environment -----------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The set of processor nodes a virtual organization schedules on, plus
/// the randomized factory matching the paper's simulated environment:
/// 20..30 nodes split into three relative-performance bands.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_RESOURCE_GRID_H
#define CWS_RESOURCE_GRID_H

#include "resource/Node.h"
#include "support/Prng.h"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace cws {

/// Parameters of the randomized environment of Section 4.
struct GridConfig {
  /// Node count is uniform in [MinNodes, MaxNodes] ("varied from 20 to
  /// 30" to conform to the task parallelism degree).
  unsigned MinNodes = 20;
  unsigned MaxNodes = 30;

  /// Share of nodes per band; the remainder is slow.
  double FastShare = 1.0 / 3.0;
  double MediumShare = 1.0 / 3.0;

  /// Relative performance ranges of the paper: fast 0.66..1, medium
  /// 0.33..0.66, slow exactly 0.33.
  double FastLo = 0.66;
  double FastHi = 1.0;
  double MediumLo = 0.35;
  double MediumHi = 0.66;
  double SlowPerf = 0.33;

  /// Economic model: price per tick = PriceBase * RelPerf^PriceExponent.
  /// With an exponent above 1 the total price of a fixed amount of work
  /// grows with performance — the paper's "user should pay additional
  /// cost in order to use more powerful resource".
  double PriceBase = 10.0;
  double PriceExponent = 2.0;
};

/// An ordered collection of processor nodes.
class Grid {
public:
  Grid() = default;

  /// Adds a node with the config's price model; returns its id.
  unsigned addNode(double RelPerf, const GridConfig &Config = GridConfig());

  /// Adds a node with an explicit price; returns its id.
  unsigned addNodePriced(double RelPerf, double PricePerTick);

  /// Builds the randomized Section-4 environment.
  static Grid makeRandom(const GridConfig &Config, Prng &Rng);

  /// Builds the four-type environment of the Fig. 2 worked example:
  /// node ids 0..3 with relative performance 1, 1/2, 1/3, 1/4 — they
  /// correspond to the paper's node types 1..4.
  static Grid makeFig2();

  size_t size() const { return Nodes.size(); }
  bool empty() const { return Nodes.empty(); }

  ProcessorNode &node(unsigned Id);
  const ProcessorNode &node(unsigned Id) const;

  std::vector<ProcessorNode> &nodes() { return Nodes; }
  const std::vector<ProcessorNode> &nodes() const { return Nodes; }

  /// Ids of nodes in the given band, fastest first.
  std::vector<unsigned> idsInGroup(PerfGroup Group) const;

  /// Ids of all nodes, fastest first.
  std::vector<unsigned> idsByPerf() const;

  /// Mean utilization of the band over [From, To).
  double groupUtilization(PerfGroup Group, Tick From, Tick To) const;

  /// Calls \p Fn for every reservation interval of every node, node by
  /// node in id order (intervals ordered by Begin within a node) — the
  /// telemetry exporter walks this to build per-node occupancy tracks.
  void forEachInterval(
      const std::function<void(unsigned Node, const Interval &I)> &Fn) const;

  /// Releases every reservation held by \p Owner across all nodes.
  void releaseOwner(OwnerId Owner);

  /// Clears every timeline (fresh environment).
  void clearTimelines();

  /// A copy that keeps, on every node, only the reservations that end
  /// after \p Horizon: the scratch grid of a search that asks nothing
  /// before the horizon (see `Timeline::assignLive`).
  Grid liveCopy(Tick Horizon) const;

  /// Makes this grid `From.liveCopy(Horizon)` in this grid's storage, so
  /// a scratch grid that is refilled allocates only when it needs more
  /// room than before; returns how many reservations it copied.
  size_t assignLive(const Grid &From, Tick Horizon);

private:
  std::vector<ProcessorNode> Nodes;
};

/// One reservation a scheduling strategy plans to hold — the raw
/// (node, interval) shape the resource layer speaks; the flow layer
/// maps its placements down to these.
struct PlannedSlot {
  unsigned NodeId = 0;
  Tick Begin = 0, End = 0;
};

/// One planned slot the current environment no longer honours: the
/// index into the queried slot sequence plus the first foreign busy
/// interval overlapping it (diagnostic payload for journals and the
/// staged reallocation repair).
struct BrokenSlot {
  size_t SlotIdx = 0;
  Tick BusyStart = 0, BusyEnd = 0;
};

/// Scans \p Slots against \p G and returns the ones that are no longer
/// free, in slot order, each annotated with the first overlapping
/// interval (in timeline order) not owned by \p Ignore. An empty result
/// means every planned slot still fits. Each slot reads only the
/// intervals that overlap it; when \p Scanned is set, their number is
/// added to it.
std::vector<BrokenSlot>
collectBrokenSlots(const Grid &G, const std::vector<PlannedSlot> &Slots,
                   OwnerId Ignore, uint64_t *Scanned = nullptr);

} // namespace cws

#endif // CWS_RESOURCE_GRID_H

//===-- resource/Node.h - Heterogeneous processor nodes ---------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Processor nodes with relative performance, an economic price, and a
/// reservation timeline. The paper's environment groups nodes into three
/// relative-performance bands ("fast" 0.66..1, "medium" 0.33..0.66,
/// "slow" 0.33); PerfGroup mirrors that split.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_RESOURCE_NODE_H
#define CWS_RESOURCE_NODE_H

#include "resource/Timeline.h"
#include "sim/Time.h"

namespace cws {

/// The paper's three relative-performance bands.
enum class PerfGroup { Fast, Medium, Slow };

/// Human-readable band name ("fast" / "medium" / "slow").
const char *perfGroupName(PerfGroup Group);

/// Classifies a relative performance value into the paper's bands.
PerfGroup classifyPerf(double RelPerf);

/// One processor node of the distributed environment.
///
/// A node executes one task at a time (each task "is executed on a single
/// node" and is seen by the local batch system as a job with a resource
/// request); concurrency within a node is therefore modelled by its
/// timeline's exclusive reservations.
class ProcessorNode {
public:
  ProcessorNode(unsigned Id, double RelPerf, double PricePerTick);

  unsigned id() const { return Id; }
  double relPerf() const { return RelPerf; }
  double pricePerTick() const { return PricePerTick; }
  PerfGroup group() const { return Group; }

  /// Whole-tick execution time on this node of work that takes
  /// \p RefTicks on a reference (RelPerf = 1) node.
  Tick execTicks(Tick RefTicks) const;

  Timeline &timeline() { return Line; }
  const Timeline &timeline() const { return Line; }

  /// Becomes \p From with only the reservations that end after
  /// \p Horizon, in this node's timeline storage (see
  /// `Timeline::assignLive`); returns how many it copied.
  size_t assignLive(const ProcessorNode &From, Tick Horizon);

private:
  unsigned Id;
  double RelPerf;
  double PricePerTick;
  PerfGroup Group;
  Timeline Line;
};

} // namespace cws

#endif // CWS_RESOURCE_NODE_H

//===-- resource/Node.cpp - Heterogeneous processor nodes -----------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "resource/Node.h"
#include "support/Check.h"

using namespace cws;

const char *cws::perfGroupName(PerfGroup Group) {
  switch (Group) {
  case PerfGroup::Fast:
    return "fast";
  case PerfGroup::Medium:
    return "medium";
  case PerfGroup::Slow:
    return "slow";
  }
  CWS_UNREACHABLE("unknown performance group");
}

PerfGroup cws::classifyPerf(double RelPerf) {
  if (RelPerf >= 0.66)
    return PerfGroup::Fast;
  if (RelPerf > 0.34)
    return PerfGroup::Medium;
  return PerfGroup::Slow;
}

ProcessorNode::ProcessorNode(unsigned Id, double RelPerf, double PricePerTick)
    : Id(Id), RelPerf(RelPerf), PricePerTick(PricePerTick),
      Group(classifyPerf(RelPerf)) {
  CWS_CHECK(RelPerf > 0.0, "relative performance must be positive");
  CWS_CHECK(PricePerTick >= 0.0, "price per tick must be non-negative");
}

size_t ProcessorNode::assignLive(const ProcessorNode &From, Tick Horizon) {
  Id = From.Id;
  RelPerf = From.RelPerf;
  PricePerTick = From.PricePerTick;
  Group = From.Group;
  return Line.assignLive(From.Line, Horizon);
}

Tick ProcessorNode::execTicks(Tick RefTicks) const {
  CWS_CHECK(RefTicks >= 0, "negative reference time");
  if (RefTicks == 0)
    return 0;
  // ceil(RefTicks / RelPerf) with a tolerance so perfs stored as 1/3 or
  // 1/4 reproduce the paper's integral estimation table exactly.
  double Exact = static_cast<double>(RefTicks) / RelPerf;
  return ceilTicks(Exact - 1e-9);
}

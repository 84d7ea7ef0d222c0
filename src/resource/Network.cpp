//===-- resource/Network.cpp - Data transfer model ------------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "resource/Network.h"
#include "support/Check.h"

using namespace cws;

Tick Network::farTicks(Tick BaseTicks) const {
  CWS_CHECK(BaseTicks >= 0, "negative base transfer time");
  if (BaseTicks == 0)
    return Config.Latency;
  double Scaled = static_cast<double>(BaseTicks) * Config.TransferScale;
  return Config.Latency + ceilTicks(Scaled - 1e-9);
}

Tick Network::transferTicks(Tick BaseTicks, unsigned SrcNode,
                            unsigned DstNode) const {
  Tick Far = farTicks(BaseTicks);
  return SrcNode == DstNode ? 0 : Far;
}

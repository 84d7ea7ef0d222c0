//===-- core/CostModel.cpp - Cost functions and economics -----------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "core/CostModel.h"
#include "resource/Grid.h"
#include "support/Check.h"

using namespace cws;

CostModel::CostModel(const Grid &G, CostConfig Config)
    : G(G), Config(Config) {}

int64_t CostModel::cfTerm(double Volume, Tick LoadTicks) {
  CWS_CHECK(LoadTicks > 0, "CF term needs a positive load time");
  double Exact = Volume / static_cast<double>(LoadTicks);
  return ceilTicks(Exact - 1e-9);
}

double CostModel::nodeCost(unsigned NodeId, Tick Ticks) const {
  CWS_CHECK(Ticks >= 0, "negative occupancy");
  return G.node(NodeId).pricePerTick() * static_cast<double>(Ticks);
}

double CostModel::transferCost(Tick Ticks) const {
  CWS_CHECK(Ticks >= 0, "negative transfer time");
  return Config.TransferCostPerTick * static_cast<double>(Ticks);
}

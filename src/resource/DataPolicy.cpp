//===-- resource/DataPolicy.cpp - Data placement policies -----------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "resource/DataPolicy.h"
#include "support/Check.h"

#include <algorithm>

using namespace cws;

const char *cws::dataPolicyName(DataPolicyKind Kind) {
  switch (Kind) {
  case DataPolicyKind::ActiveReplication:
    return "replication";
  case DataPolicyKind::RemoteAccess:
    return "remote";
  case DataPolicyKind::StaticStorage:
    return "static";
  }
  CWS_UNREACHABLE("unknown data policy");
}

DataPolicy::DataPolicy(DataPolicyKind Kind, const Network &Net,
                       DataPolicyConfig Config)
    : Kind(Kind), Net(Net), Config(Config) {}

bool DataPolicy::hasReplica(unsigned ProducerTask, unsigned Node) const {
  return std::find(Replicas.begin(), Replicas.end(),
                   replicaKey(ProducerTask, Node)) != Replicas.end();
}

static Tick scaleTicks(Tick Ticks, double Factor) {
  return ceilTicks(static_cast<double>(Ticks) * Factor - 1e-9);
}

DataPolicy::FarTicks DataPolicy::far(Tick BaseTicks) const {
  Tick Wire = Net.farTicks(BaseTicks);
  if (Wire == 0)
    return {0, 0};
  switch (Kind) {
  case DataPolicyKind::ActiveReplication:
    return {scaleTicks(Wire, Config.ReplicationFactor),
            scaleTicks(Wire, Config.ReplicationBilling)};
  case DataPolicyKind::RemoteAccess:
    return {Wire, Wire};
  case DataPolicyKind::StaticStorage: {
    Tick Moved = scaleTicks(Wire, Config.StaticPenalty);
    return {Moved, Moved};
  }
  }
  CWS_UNREACHABLE("unknown data policy");
}

void DataPolicy::replicaNodes(unsigned ProducerTask, NodeSet &Nodes) const {
  Nodes.clear();
  for (uint64_t Key : Replicas)
    if (Key >> 32 == ProducerTask)
      Nodes.insert(static_cast<unsigned>(Key));
}

Tick DataPolicy::previewTicks(unsigned ProducerTask, Tick BaseTicks,
                              unsigned SrcNode, unsigned DstNode) const {
  FarTicks Far = far(BaseTicks);
  return isFree(ProducerTask, SrcNode, DstNode) ? 0 : Far.Wait;
}

Tick DataPolicy::billedTicks(unsigned ProducerTask, Tick BaseTicks,
                             unsigned SrcNode, unsigned DstNode) const {
  FarTicks Far = far(BaseTicks);
  return isFree(ProducerTask, SrcNode, DstNode) ? 0 : Far.Billed;
}

Tick DataPolicy::transferTicks(unsigned ProducerTask, Tick BaseTicks,
                               unsigned SrcNode, unsigned DstNode) {
  Tick Ticks = previewTicks(ProducerTask, BaseTicks, SrcNode, DstNode);
  if (Kind == DataPolicyKind::ActiveReplication && SrcNode != DstNode &&
      !hasReplica(ProducerTask, DstNode))
    Replicas.push_back(replicaKey(ProducerTask, DstNode));
  return Ticks;
}

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

Tick DataPolicy::previewTicks(unsigned ProducerTask, Tick BaseTicks,
                              unsigned SrcNode, unsigned DstNode) const {
  Tick Wire = Net.transferTicks(BaseTicks, SrcNode, DstNode);
  if (Wire == 0)
    return 0;
  switch (Kind) {
  case DataPolicyKind::ActiveReplication:
    if (hasReplica(ProducerTask, DstNode))
      return 0;
    return scaleTicks(Wire, Config.ReplicationFactor);
  case DataPolicyKind::RemoteAccess:
    return Wire;
  case DataPolicyKind::StaticStorage:
    return scaleTicks(Wire, Config.StaticPenalty);
  }
  CWS_UNREACHABLE("unknown data policy");
}

Tick DataPolicy::billedTicks(unsigned ProducerTask, Tick BaseTicks,
                             unsigned SrcNode, unsigned DstNode) const {
  if (Kind != DataPolicyKind::ActiveReplication)
    return previewTicks(ProducerTask, BaseTicks, SrcNode, DstNode);
  Tick Wire = Net.transferTicks(BaseTicks, SrcNode, DstNode);
  if (Wire == 0 || hasReplica(ProducerTask, DstNode))
    return 0;
  return scaleTicks(Wire, Config.ReplicationBilling);
}

Tick DataPolicy::transferTicks(unsigned ProducerTask, Tick BaseTicks,
                               unsigned SrcNode, unsigned DstNode) {
  Tick Ticks = previewTicks(ProducerTask, BaseTicks, SrcNode, DstNode);
  if (Kind == DataPolicyKind::ActiveReplication && SrcNode != DstNode &&
      !hasReplica(ProducerTask, DstNode))
    Replicas.push_back(replicaKey(ProducerTask, DstNode));
  return Ticks;
}

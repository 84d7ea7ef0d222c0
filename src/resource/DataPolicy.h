//===-- resource/DataPolicy.h - Data placement policies ---------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Data storage and replication policies, the second axis of the paper's
/// strategy types: S1 replicates actively, S2 accesses data remotely and
/// S3 keeps data static. The policy turns a (producer, consumer, base
/// transfer time, source node, destination node) tuple into an effective
/// transfer time, optionally remembering replica locations.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_RESOURCE_DATAPOLICY_H
#define CWS_RESOURCE_DATAPOLICY_H

#include "resource/Network.h"
#include "sim/Time.h"

#include <cstdint>
#include <vector>

namespace cws {

/// The three data policies of the paper's strategy types.
enum class DataPolicyKind {
  /// S1: replicas are created proactively, so a transfer costs a fraction
  /// of the base time and repeated consumption at a node is free.
  ActiveReplication,
  /// S2: every consumer fetches the data over the network at full price.
  RemoteAccess,
  /// S3: data stays where it was produced; moving it anyway pays a
  /// penalty, so consumers prefer co-location.
  StaticStorage,
};

/// Short name ("replication" / "remote" / "static").
const char *dataPolicyName(DataPolicyKind Kind);

/// Tunables of the policy cost model.
struct DataPolicyConfig {
  /// ActiveReplication: share of the base transfer time a proactive
  /// replication costs on first delivery to a node.
  double ReplicationFactor = 0.4;
  /// StaticStorage: multiplier on the base transfer time when data must
  /// be moved despite the static policy.
  double StaticPenalty = 1.2;
  /// ActiveReplication: share of the wire time the consumer is billed
  /// for. Replication is a VO service whose cost is amortized across
  /// users, so consumers pay only a fraction of the transfer price.
  double ReplicationBilling = 0.25;
};

/// Stateful data placement policy used while building one distribution.
///
/// The replica memory only matters for ActiveReplication; reset() clears
/// it between alternative schedules of a strategy.
class DataPolicy {
public:
  DataPolicy(DataPolicyKind Kind, const Network &Net,
             DataPolicyConfig Config = DataPolicyConfig());

  DataPolicyKind kind() const { return Kind; }

  /// Effective transfer ticks of a dataset produced by task
  /// \p ProducerTask on \p SrcNode and consumed on \p DstNode.
  /// For ActiveReplication this *records* the new replica.
  Tick transferTicks(unsigned ProducerTask, Tick BaseTicks, unsigned SrcNode,
                     unsigned DstNode);

  /// Like transferTicks but without recording replicas; usable from
  /// const contexts (cost previews in the DP allocator).
  Tick previewTicks(unsigned ProducerTask, Tick BaseTicks, unsigned SrcNode,
                    unsigned DstNode) const;

  /// Transfer ticks the consumer is *billed* for. Equal to previewTicks
  /// except under ActiveReplication, where the VO's replica service
  /// amortizes most of the wire cost (ReplicationBilling).
  Tick billedTicks(unsigned ProducerTask, Tick BaseTicks, unsigned SrcNode,
                   unsigned DstNode) const;

  /// Forgets all replica locations.
  void reset() { Replicas.clear(); }

private:
  uint64_t replicaKey(unsigned ProducerTask, unsigned Node) const {
    return (static_cast<uint64_t>(ProducerTask) << 32) | Node;
  }

  bool hasReplica(unsigned ProducerTask, unsigned Node) const;

  DataPolicyKind Kind;
  const Network &Net;
  DataPolicyConfig Config;
  /// The (producer, node) keys of the replicas made, each once. A
  /// distribution makes about one per cross-node edge, so a flat list is
  /// searched faster than a hash set and copied with a lane for less.
  std::vector<uint64_t> Replicas;
};

} // namespace cws

#endif // CWS_RESOURCE_DATAPOLICY_H

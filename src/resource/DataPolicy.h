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
/// Every transfer has one derivation. It is free on one node and to a
/// node that holds a replica of the producer's data; otherwise it costs
/// `DataPolicy::far` of the edge's base time, whichever two nodes it
/// joins, since the network is uniform. So a caller that prices one edge
/// on many nodes derives its far ticks and its replica set once and
/// tests each node in O(1).
///
//===----------------------------------------------------------------------===//

#ifndef CWS_RESOURCE_DATAPOLICY_H
#define CWS_RESOURCE_DATAPOLICY_H

#include "resource/Network.h"
#include "sim/Time.h"

#include <algorithm>
#include <cstddef>
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

/// A set of node ids with an O(1) membership test for any node count:
/// one bit per id, up to the largest id inserted.
class NodeSet {
public:
  /// Empties the set and keeps its storage.
  void clear() { std::fill(Words.begin(), Words.end(), 0); }

  void insert(unsigned Node) {
    size_t Word = Node / 64;
    if (Word >= Words.size())
      Words.resize(Word + 1, 0);
    Words[Word] |= uint64_t(1) << (Node % 64);
  }

  bool contains(unsigned Node) const {
    size_t Word = Node / 64;
    return Word < Words.size() && (Words[Word] >> (Node % 64) & 1) != 0;
  }

private:
  std::vector<uint64_t> Words;
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

  /// What a transfer that is not free costs: the ticks the consumer
  /// waits for it and the ticks it is billed for.
  struct FarTicks {
    Tick Wait;
    Tick Billed;
  };

  /// The cost of a transfer with base time \p BaseTicks between two
  /// distinct nodes, to a node holding no replica of the producer's data.
  FarTicks far(Tick BaseTicks) const;

  /// Sets \p Nodes to the nodes holding a replica of \p ProducerTask's
  /// data.
  void replicaNodes(unsigned ProducerTask, NodeSet &Nodes) const;

  /// Effective transfer ticks of a dataset produced by task
  /// \p ProducerTask on \p SrcNode and consumed on \p DstNode.
  /// For ActiveReplication this *records* the new replica.
  Tick transferTicks(unsigned ProducerTask, Tick BaseTicks, unsigned SrcNode,
                     unsigned DstNode);

  /// Like transferTicks but without recording replicas: 0 when the
  /// transfer is free, else `far(BaseTicks).Wait`.
  Tick previewTicks(unsigned ProducerTask, Tick BaseTicks, unsigned SrcNode,
                    unsigned DstNode) const;

  /// Transfer ticks the consumer is *billed* for: 0 when the transfer is
  /// free, else `far(BaseTicks).Billed`. Equal to previewTicks except
  /// under ActiveReplication, where the VO's replica service amortizes
  /// most of the wire cost (ReplicationBilling).
  Tick billedTicks(unsigned ProducerTask, Tick BaseTicks, unsigned SrcNode,
                   unsigned DstNode) const;

  /// Forgets all replica locations.
  void reset() { Replicas.clear(); }

private:
  uint64_t replicaKey(unsigned ProducerTask, unsigned Node) const {
    return (static_cast<uint64_t>(ProducerTask) << 32) | Node;
  }

  bool hasReplica(unsigned ProducerTask, unsigned Node) const;

  /// Whether moving \p ProducerTask's data from \p SrcNode to \p DstNode
  /// is free: on one node, or to a replica.
  bool isFree(unsigned ProducerTask, unsigned SrcNode, unsigned DstNode) const {
    return SrcNode == DstNode || hasReplica(ProducerTask, DstNode);
  }

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

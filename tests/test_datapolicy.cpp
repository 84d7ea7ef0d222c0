//===-- tests/test_datapolicy.cpp - Network and data policy tests ---------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "resource/DataPolicy.h"
#include "resource/Network.h"
#include "support/Prng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

using namespace cws;

namespace {

/// The transfer formulas from before the single derivation, which priced
/// each (producer, source, destination) tuple on its own. They are the
/// reference the derivation must equal.
struct ReferencePolicy {
  DataPolicyKind Kind;
  NetworkConfig Net;
  DataPolicyConfig Config;
  std::vector<uint64_t> Replicas;

  Tick wire(Tick Base, unsigned Src, unsigned Dst) const {
    if (Src == Dst || Base == 0)
      return Src == Dst ? 0 : Net.Latency;
    double Scaled = static_cast<double>(Base) * Net.TransferScale;
    return Net.Latency + ceilTicks(Scaled - 1e-9);
  }
  bool hasReplica(unsigned Producer, unsigned Node) const {
    uint64_t Key = (static_cast<uint64_t>(Producer) << 32) | Node;
    return std::find(Replicas.begin(), Replicas.end(), Key) != Replicas.end();
  }
  static Tick scale(Tick Ticks, double Factor) {
    return ceilTicks(static_cast<double>(Ticks) * Factor - 1e-9);
  }
  Tick preview(unsigned Producer, Tick Base, unsigned Src,
               unsigned Dst) const {
    Tick Wire = wire(Base, Src, Dst);
    if (Wire == 0)
      return 0;
    switch (Kind) {
    case DataPolicyKind::ActiveReplication:
      return hasReplica(Producer, Dst) ? 0
                                       : scale(Wire, Config.ReplicationFactor);
    case DataPolicyKind::RemoteAccess:
      return Wire;
    case DataPolicyKind::StaticStorage:
      return scale(Wire, Config.StaticPenalty);
    }
    return -1;
  }
  Tick billed(unsigned Producer, Tick Base, unsigned Src, unsigned Dst) const {
    if (Kind != DataPolicyKind::ActiveReplication)
      return preview(Producer, Base, Src, Dst);
    Tick Wire = wire(Base, Src, Dst);
    if (Wire == 0 || hasReplica(Producer, Dst))
      return 0;
    return scale(Wire, Config.ReplicationBilling);
  }
  void record(unsigned Producer, unsigned Src, unsigned Dst) {
    if (Kind == DataPolicyKind::ActiveReplication && Src != Dst &&
        !hasReplica(Producer, Dst))
      Replicas.push_back((static_cast<uint64_t>(Producer) << 32) | Dst);
  }
};

} // namespace

TEST(Network, SameNodeIsFree) {
  Network Net;
  EXPECT_EQ(Net.transferTicks(10, 3, 3), 0);
}

TEST(Network, CrossNodePaysBaseTime) {
  Network Net;
  EXPECT_EQ(Net.transferTicks(10, 1, 2), 10);
}

TEST(Network, ScaleAndLatency) {
  NetworkConfig Config;
  Config.TransferScale = 1.5;
  Config.Latency = 2;
  Network Net(Config);
  EXPECT_EQ(Net.transferTicks(10, 1, 2), 17); // 2 + ceil(15)
  EXPECT_EQ(Net.transferTicks(0, 1, 2), 2);   // Latency only.
  EXPECT_EQ(Net.transferTicks(10, 1, 1), 0);  // Same node ignores both.
}

TEST(Network, ScaleRoundsUp) {
  NetworkConfig Config;
  Config.TransferScale = 0.5;
  Network Net(Config);
  EXPECT_EQ(Net.transferTicks(3, 0, 1), 2); // ceil(1.5)
}

TEST(DataPolicy, RemoteAccessPaysEveryTime) {
  Network Net;
  DataPolicy P(DataPolicyKind::RemoteAccess, Net);
  EXPECT_EQ(P.transferTicks(0, 10, 1, 2), 10);
  EXPECT_EQ(P.transferTicks(0, 10, 1, 2), 10); // No memory.
  EXPECT_EQ(P.transferTicks(0, 10, 1, 1), 0);
}

TEST(DataPolicy, ReplicationAmortizesAndRemembers) {
  Network Net;
  DataPolicyConfig Config;
  Config.ReplicationFactor = 0.5;
  DataPolicy P(DataPolicyKind::ActiveReplication, Net, Config);
  EXPECT_EQ(P.transferTicks(7, 10, 1, 2), 5); // First delivery: half.
  EXPECT_EQ(P.transferTicks(7, 10, 1, 2), 0); // Replica present.
  EXPECT_EQ(P.transferTicks(7, 10, 3, 2), 0); // Any source: replica at 2.
  EXPECT_EQ(P.transferTicks(8, 10, 1, 2), 5); // Different dataset.
}

TEST(DataPolicy, ReplicationResetForgets) {
  Network Net;
  DataPolicy P(DataPolicyKind::ActiveReplication, Net);
  P.transferTicks(1, 10, 1, 2);
  P.reset();
  EXPECT_GT(P.transferTicks(1, 10, 1, 2), 0);
}

TEST(DataPolicy, PreviewDoesNotRecordReplicas) {
  Network Net;
  DataPolicy P(DataPolicyKind::ActiveReplication, Net);
  Tick First = P.previewTicks(1, 10, 1, 2);
  EXPECT_GT(First, 0);
  EXPECT_EQ(P.previewTicks(1, 10, 1, 2), First); // Still not replicated.
}

TEST(DataPolicy, StaticStoragePenalizesMovement) {
  Network Net;
  DataPolicyConfig Config;
  Config.StaticPenalty = 2.0;
  DataPolicy P(DataPolicyKind::StaticStorage, Net, Config);
  EXPECT_EQ(P.transferTicks(0, 10, 1, 2), 20);
  EXPECT_EQ(P.transferTicks(0, 10, 2, 2), 0); // Co-located: free.
}

TEST(DataPolicy, BilledTicksReplicationIsCheap) {
  Network Net;
  DataPolicyConfig Config;
  Config.ReplicationFactor = 0.5;
  Config.ReplicationBilling = 0.25;
  DataPolicy P(DataPolicyKind::ActiveReplication, Net, Config);
  EXPECT_EQ(P.billedTicks(0, 12, 1, 2), 3);  // quarter of the wire time
  EXPECT_EQ(P.previewTicks(0, 12, 1, 2), 6); // but half the latency
  P.transferTicks(0, 12, 1, 2);
  EXPECT_EQ(P.billedTicks(0, 12, 1, 2), 0); // Replicated: free.
}

TEST(DataPolicy, BilledTicksMatchesPreviewForOtherKinds) {
  Network Net;
  DataPolicy Remote(DataPolicyKind::RemoteAccess, Net);
  DataPolicy Static(DataPolicyKind::StaticStorage, Net);
  EXPECT_EQ(Remote.billedTicks(0, 10, 1, 2), Remote.previewTicks(0, 10, 1, 2));
  EXPECT_EQ(Static.billedTicks(0, 10, 1, 2), Static.previewTicks(0, 10, 1, 2));
}

TEST(DataPolicy, TransferFromAnotherNodeDoesNotDependOnWhichNode) {
  // The chain DP prices a chain edge once per destination node for
  // every other source node, so previewed and billed ticks may depend on
  // the source only through whether it is the destination.
  NetworkConfig Slow;
  Slow.TransferScale = 1.5;
  Slow.Latency = 2;
  for (const Network &Net : {Network(), Network(Slow)})
    for (DataPolicyKind Kind :
         {DataPolicyKind::ActiveReplication, DataPolicyKind::RemoteAccess,
          DataPolicyKind::StaticStorage}) {
      DataPolicy P(Kind, Net);
      P.transferTicks(/*ProducerTask=*/3, 10, 0, 2); // A replica on node 2.
      for (unsigned Producer : {3u, 4u})
        for (Tick Base : {0, 1, 10})
          for (unsigned Dst = 0; Dst < 4; ++Dst) {
            unsigned First = Dst == 0 ? 1 : 0;
            for (unsigned Src = 0; Src < 4; ++Src) {
              if (Src == Dst)
                continue;
              EXPECT_EQ(P.previewTicks(Producer, Base, Src, Dst),
                        P.previewTicks(Producer, Base, First, Dst))
                  << dataPolicyName(Kind) << " " << Src << "->" << Dst;
              EXPECT_EQ(P.billedTicks(Producer, Base, Src, Dst),
                        P.billedTicks(Producer, Base, First, Dst))
                  << dataPolicyName(Kind) << " " << Src << "->" << Dst;
            }
          }
    }
}

TEST(DataPolicy, SingleDerivationMatchesTheReferenceFormulas) {
  // A transfer is free on one node and to a replica of the producer's
  // data, and costs far(Base) anywhere else. previewTicks and billedTicks
  // use that derivation, and so does the chain DP, which derives far
  // ticks and a replica set once and tests each node in O(1). Both forms
  // must equal the reference over random producers, bases (0 included),
  // node ids up to 129, same and different node pairs, growing replica
  // sets, all three policies, and default and other network and policy
  // settings.
  const NetworkConfig Nets[] = {{1.0, 0}, {1.7, 3}, {0.5, 0}, {2.3, 1}};
  const DataPolicyConfig Configs[] = {{0.4, 1.2, 0.25}, {0.55, 1.45, 0.3}};
  // Destinations that hold many replicas, on both sides of 64.
  const unsigned Hot[] = {3, 63, 64, 65, 127};
  Prng Rng(28);
  size_t Compared = 0, FreeByReplica = 0;
  for (const NetworkConfig &NetConfig : Nets)
    for (const DataPolicyConfig &Config : Configs)
      for (DataPolicyKind Kind :
           {DataPolicyKind::ActiveReplication, DataPolicyKind::RemoteAccess,
            DataPolicyKind::StaticStorage}) {
        Network Net(NetConfig);
        DataPolicy P(Kind, Net, Config);
        ReferencePolicy Ref{Kind, NetConfig, Config, {}};
        NodeSet Replicas;
        for (int Step = 0; Step < 600; ++Step) {
          auto Producer = static_cast<unsigned>(Rng.index(12));
          Tick Base = Rng.bernoulli(0.25) ? 0 : Rng.uniformInt(1, 40);
          auto Src = static_cast<unsigned>(Rng.index(130));
          unsigned Dst = Rng.bernoulli(0.2)   ? Src
                         : Rng.bernoulli(0.5) ? Hot[Rng.index(5)]
                                              : static_cast<unsigned>(
                                                    Rng.index(130));
          Tick Preview = Ref.preview(Producer, Base, Src, Dst);
          Tick Billed = Ref.billed(Producer, Base, Src, Dst);
          EXPECT_EQ(P.previewTicks(Producer, Base, Src, Dst), Preview);
          EXPECT_EQ(P.billedTicks(Producer, Base, Src, Dst), Billed);
          P.replicaNodes(Producer, Replicas);
          DataPolicy::FarTicks Far = P.far(Base);
          bool Free = Src == Dst || Replicas.contains(Dst);
          EXPECT_EQ(Free ? 0 : Far.Wait, Preview);
          EXPECT_EQ(Free ? 0 : Far.Billed, Billed);
          ++Compared;
          FreeByReplica += Src != Dst && Replicas.contains(Dst);
          if (Rng.bernoulli(0.3)) {
            EXPECT_EQ(P.transferTicks(Producer, Base, Src, Dst), Preview);
            Ref.record(Producer, Src, Dst);
          }
        }
      }
  EXPECT_EQ(Compared, 4u * 2u * 3u * 600u);
  // Not vacuous: replicas made many transfers between two nodes free.
  EXPECT_GT(FreeByReplica, 200u);
}

TEST(NodeSet, HoldsAnyNodeId) {
  NodeSet S;
  for (unsigned Node : {0u, 63u, 64u, 129u, 1000u})
    EXPECT_FALSE(S.contains(Node));
  for (unsigned Node : {0u, 63u, 64u, 129u, 1000u})
    S.insert(Node);
  for (unsigned Node : {0u, 63u, 64u, 129u, 1000u})
    EXPECT_TRUE(S.contains(Node));
  for (unsigned Node : {1u, 62u, 65u, 128u, 999u, 1001u, 5000u})
    EXPECT_FALSE(S.contains(Node));
  S.clear();
  for (unsigned Node : {0u, 63u, 64u, 129u, 1000u})
    EXPECT_FALSE(S.contains(Node));
}

TEST(DataPolicy, Names) {
  EXPECT_STREQ(dataPolicyName(DataPolicyKind::ActiveReplication),
               "replication");
  EXPECT_STREQ(dataPolicyName(DataPolicyKind::RemoteAccess), "remote");
  EXPECT_STREQ(dataPolicyName(DataPolicyKind::StaticStorage), "static");
}

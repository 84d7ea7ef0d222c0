//===-- tests/test_datapolicy.cpp - Network and data policy tests ---------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "resource/DataPolicy.h"
#include "resource/Network.h"

#include <gtest/gtest.h>

using namespace cws;

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

TEST(DataPolicy, Names) {
  EXPECT_STREQ(dataPolicyName(DataPolicyKind::ActiveReplication),
               "replication");
  EXPECT_STREQ(dataPolicyName(DataPolicyKind::RemoteAccess), "remote");
  EXPECT_STREQ(dataPolicyName(DataPolicyKind::StaticStorage), "static");
}

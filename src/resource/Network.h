//===-- resource/Network.h - Data transfer model ----------------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The inter-node transfer-time model. A data edge of a compound job has
/// a base transfer time (on the reference network); the network scales it
/// and adds latency. Transfers within one node are free, which is the
/// lever coarse-grain strategies (S3) pull to avoid data exchanges.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_RESOURCE_NETWORK_H
#define CWS_RESOURCE_NETWORK_H

#include "sim/Time.h"

namespace cws {

/// Transfer-time parameters.
struct NetworkConfig {
  /// Multiplier on base transfer ticks between distinct nodes.
  double TransferScale = 1.0;
  /// Fixed per-transfer latency between distinct nodes.
  Tick Latency = 0;
};

/// Computes inter-node transfer times.
class Network {
public:
  Network() = default;
  explicit Network(NetworkConfig Config) : Config(Config) {}

  /// Ticks to move data with base transfer time \p BaseTicks from
  /// \p SrcNode to \p DstNode. Zero when both are the same node.
  Tick transferTicks(Tick BaseTicks, unsigned SrcNode, unsigned DstNode) const;

  /// Ticks to move data with base transfer time \p BaseTicks between
  /// two distinct nodes: the network is uniform, so any two.
  Tick farTicks(Tick BaseTicks) const;

  const NetworkConfig &config() const { return Config; }

private:
  NetworkConfig Config;
};

} // namespace cws

#endif // CWS_RESOURCE_NETWORK_H

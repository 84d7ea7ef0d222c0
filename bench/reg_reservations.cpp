//===-- bench/reg_reservations.cpp - Section 5 advance reservations -------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 5: "preliminary reservation nearly always increases queue
/// waiting time. Backfilling decreases this time." One 1,500-job trace
/// on 16 nodes runs with 0, 2, 4 or 6 nodes taken by advance
/// reservations (120 ticks every 300), under plain FCFS and under EASY
/// and conservative backfilling.
///
/// Work counters: `jobs`, and `reserved<n>.<backfill>.wait_sum` per
/// reserved node count n and backfilling mode (mean wait = wait_sum /
/// jobs).
///
//===----------------------------------------------------------------------===//

#include "batch/Cluster.h"
#include "harness.h"

#include <string>

using namespace cws;

CWS_BENCH(reservations, "Section 5 advance reservations vs queue waiting "
                        "time, with and without backfilling",
          /*Reps=*/1, /*Warmup=*/0, /*Profile=*/true) {
  constexpr size_t Jobs = 1500;
  constexpr unsigned Nodes = 16;
  constexpr uint64_t Seed = 2009;
  Ctx.setSeed(Seed);
  Ctx.setConfig("jobs=" + std::to_string(Jobs) +
                "\nnodes=" + std::to_string(Nodes) + "\n");

  BatchWorkloadConfig W;
  W.JobCount = Jobs;
  W.NodesHi = Nodes / 2;
  std::vector<BatchJob> Trace = makeBatchTrace(W, Seed);
  Tick TraceEnd = Trace.back().Arrival + 200;
  Ctx.setWork("jobs", Jobs);

  const BackfillMode Modes[] = {BackfillMode::None, BackfillMode::Easy,
                                BackfillMode::Conservative};
  // WaitSum[share][mode]; shares 0, 2, 4, 6.
  uint64_t WaitSum[4][3] = {};
  for (unsigned S = 0; S < 4; ++S) {
    unsigned Share = 2 * S;
    std::vector<AdvanceReservation> Resv;
    if (Share > 0)
      for (Tick At = 100; At < TraceEnd; At += 300)
        Resv.push_back({At, At + 120, Share});
    for (unsigned M = 0; M < 3; ++M) {
      ClusterConfig Config;
      Config.NodeCount = Nodes;
      Config.Backfill = Modes[M];
      for (const BatchOutcome &O : runCluster(Config, Trace, Resv))
        WaitSum[S][M] += static_cast<uint64_t>(O.wait());
      Ctx.setWork("reserved" + std::to_string(Share) + "." +
                      backfillModeName(Modes[M]) + ".wait_sum",
                  WaitSum[S][M]);
    }
  }

  bool Grows = true, Recovers = true;
  for (unsigned S = 0; S < 4; ++S)
    for (unsigned M = 0; M < 3; ++M) {
      Grows = Grows && (S == 0 || WaitSum[S][M] > WaitSum[S - 1][M]);
      Recovers = Recovers && (M == 0 || WaitSum[S][M] < WaitSum[S][0]);
    }
  Ctx.check("waiting time grows with the reserved capacity share under "
            "every backfilling mode",
            Grows);
  Ctx.check("backfilling recovers part of the loss at every reserved share",
            Recovers);
}

//===-- bench/reg_local_policies.cpp - Section 5 local queue policies -----===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 5 compares local batch queue-management models: FCFS, LWF,
/// backfilling and gang scheduling. Claims under test: "with the use of
/// FCFS strategy waiting time is shorter than with the use of LWF. On
/// the other hand, estimation error for starting time forecast is
/// bigger with FCFS than with LWF", and "backfilling decreases this
/// [waiting] time". One 2,000-job trace on 16 nodes runs under every
/// queue order x backfilling mode, and under gang scheduling.
///
/// Work counters: `jobs`, `nodes` and `work_node_ticks` (the trace's
/// runtime x nodes); per policy `<order>+<backfill>` and `gang`:
/// `wait_sum`, `wait_max`, `wait_p95_x100` (interpolated quantile,
/// times 100), `slowdown_sum_x1000`, `makespan`, and (not for gang)
/// `forecast_error_sum`. Utilization is work_node_ticks / (nodes x
/// makespan).
///
//===----------------------------------------------------------------------===//

#include "batch/Cluster.h"
#include "batch/Gang.h"
#include "harness.h"
#include "support/Stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>

using namespace cws;

CWS_BENCH(local_policies, "Section 5 local queue policies: FCFS, LWF, "
                          "priority, backfilling and gang scheduling",
          /*Reps=*/1, /*Warmup=*/0, /*Profile=*/true) {
  constexpr size_t Jobs = 2000;
  constexpr unsigned Nodes = 16;
  constexpr uint64_t Seed = 2009;
  Ctx.setSeed(Seed);
  Ctx.setConfig("jobs=" + std::to_string(Jobs) +
                "\nnodes=" + std::to_string(Nodes) + "\n");

  BatchWorkloadConfig W;
  W.JobCount = Jobs;
  W.NodesHi = Nodes / 2;
  W.PriorityLevels = 3; // Exercised by the priority rows.
  std::vector<BatchJob> Trace = makeBatchTrace(W, Seed);
  uint64_t Work = 0;
  for (const BatchJob &J : Trace)
    Work += static_cast<uint64_t>(J.ActualTicks) * J.Nodes;
  Ctx.setWork("jobs", Jobs);
  Ctx.setWork("nodes", Nodes);
  Ctx.setWork("work_node_ticks", Work);

  struct Row {
    double MeanWait = 0;
    double P95 = 0;
    double MaxWait = 0;
    double ForecastError = 0;
    double Utilization = 0;
  };
  auto Record = [&](const std::string &Name,
                    const std::vector<BatchOutcome> &Out, bool Forecast) {
    ClusterMetrics M = summarizeCluster(Trace, Out, Nodes);
    std::vector<double> Waits;
    uint64_t WaitSum = 0, ForecastSum = 0;
    for (const BatchOutcome &O : Out) {
      Waits.push_back(static_cast<double>(O.wait()));
      WaitSum += static_cast<uint64_t>(O.wait());
      ForecastSum += static_cast<uint64_t>(O.forecastError());
    }
    Row R{M.MeanWait, quantile(Waits, 0.95), M.MaxWait, M.MeanForecastError,
          M.Utilization};
    std::string Key = Name + ".";
    Ctx.setWork(Key + "wait_sum", WaitSum);
    Ctx.setWork(Key + "wait_max", static_cast<uint64_t>(M.MaxWait));
    Ctx.setWork(Key + "wait_p95_x100",
                static_cast<uint64_t>(std::llround(R.P95 * 100)));
    Ctx.setWork(Key + "slowdown_sum_x1000",
                static_cast<uint64_t>(std::llround(
                    M.MeanSlowdown * static_cast<double>(Jobs) * 1000)));
    Ctx.setWork(Key + "makespan", static_cast<uint64_t>(M.Makespan));
    if (Forecast)
      Ctx.setWork(Key + "forecast_error_sum", ForecastSum);
    return R;
  };

  std::map<std::string, Row> Rows;
  for (QueueOrder Order :
       {QueueOrder::FCFS, QueueOrder::LWF, QueueOrder::Priority})
    for (BackfillMode Mode :
         {BackfillMode::None, BackfillMode::Easy,
          BackfillMode::Conservative}) {
      ClusterConfig Config;
      Config.NodeCount = Nodes;
      Config.Order = Order;
      Config.Backfill = Mode;
      std::string Name =
          std::string(queueOrderName(Order)) + "+" + backfillModeName(Mode);
      Rows[Name] = Record(Name, runCluster(Config, Trace), /*Forecast=*/true);
    }
  double MinQueueWait = std::numeric_limits<double>::infinity();
  for (const auto &[Name, R] : Rows)
    MinQueueWait = std::min(MinQueueWait, R.MeanWait);

  // Gang scheduling gives no reservation-style forecast.
  GangConfig GC;
  GC.NodeCount = Nodes;
  Row Gang = Record("gang", runGang(GC, Trace), /*Forecast=*/false);

  const Row &FcfsNone = Rows["fcfs+none"];
  const Row &FcfsEasy = Rows["fcfs+easy"];
  const Row &FcfsCons = Rows["fcfs+conservative"];
  const Row &LwfNone = Rows["lwf+none"];
  Ctx.check("backfilling decreases waiting time versus plain FCFS",
            FcfsEasy.MeanWait < FcfsNone.MeanWait &&
                FcfsCons.MeanWait < FcfsNone.MeanWait);
  Ctx.check("plain queues: FCFS's tail wait (p95 and max) is shorter than "
            "LWF's",
            FcfsNone.P95 < LwfNone.P95 && FcfsNone.MaxWait < LwfNone.MaxWait);
  Ctx.check("plain queues: FCFS's start forecast error is bigger than LWF's",
            FcfsNone.ForecastError > LwfNone.ForecastError);
  Ctx.check("gang scheduling has the shortest mean wait, at a lower "
            "utilization than fcfs+easy",
            Gang.MeanWait < MinQueueWait &&
                Gang.Utilization < FcfsEasy.Utilization);
}

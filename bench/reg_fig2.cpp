//===-- bench/reg_fig2.cpp - The Fig. 2 worked example --------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates the paper's worked example (Fig. 2): the compound job
/// P1..P6 with data transfers D1..D8, its four critical works (12, 11,
/// 10 and 9 time units long), and a strategy fragment of alternative
/// distributions with their CF and economic cost, the cheapest one's
/// task allocations and the collisions resolved while building it.
///
/// Work counters:
///  - `node<j>.perf_x1000`: node type j's relative performance, times
///    1000;
///  - `estimate.P<i>.T<j>`: Fig. 2a's execution time of task i on node
///    type j; `estimate.P<i>.volume_x10` its volume V_ij, times 10;
///  - `chain.<tasks>.length`: each critical work's length;
///  - `D<k>.level`, `D<k>.time_bias` (0 cost, 1 time), `D<k>.feasible`
///    and, for feasible distributions, `D<k>.cf`, `D<k>.econ_cost_x100`
///    and `D<k>.makespan`;
///  - `cheapest`: the index k of the cheapest distribution, with
///    `cheapest.P<i>.{node,start,end}` (node types 1..4);
///  - `collisions` and `collision<n>.{task,node,wanted,got,resolution}`
///    for the cheapest distribution (task i of P<i>, node type 1..4,
///    resolution 0 shifted, 1 moved).
///
/// The paper's absolute CF values (41/37/41) are not derivable from its
/// own Fig. 2a table (EXPERIMENTS.md), so the check asserts the shape:
/// a unique cheapest distribution among the alternatives.
///
//===----------------------------------------------------------------------===//

#include "core/Strategy.h"
#include "harness.h"
#include "job/Job.h"
#include "resource/Network.h"

#include <cmath>
#include <string>

using namespace cws;

CWS_BENCH(fig2, "Fig. 2 worked example: critical works and a strategy "
                "fragment of alternative distributions",
          /*Reps=*/1, /*Warmup=*/0, /*Profile=*/true) {
  Job J = makeFig2Job();
  Grid Env = Grid::makeFig2();
  Network Net;
  Ctx.setConfig("job=fig2\ngrid=fig2\n");

  for (unsigned Node = 0; Node < 4; ++Node)
    Ctx.setWork("node" + std::to_string(Node + 1) + ".perf_x1000",
                static_cast<uint64_t>(
                    std::llround(Env.node(Node).relPerf() * 1000)));
  for (const auto &Task : J.tasks()) {
    std::string Key = "estimate." + Task.Name;
    for (unsigned Node = 0; Node < 4; ++Node)
      Ctx.setWork(Key + ".T" + std::to_string(Node + 1),
                  static_cast<uint64_t>(Env.node(Node).execTicks(Task.RefTicks)));
    Ctx.setWork(Key + ".volume_x10",
                static_cast<uint64_t>(std::llround(Task.Volume * 10)));
  }

  for (const auto &Chain : allFullChains(J)) {
    std::string Names;
    for (unsigned Task : Chain.TaskIds)
      Names += (Names.empty() ? "" : "-") + J.task(Task).Name;
    Ctx.setWork("chain." + Names + ".length",
                static_cast<uint64_t>(Chain.RefLength));
  }

  Strategy S = Strategy::build(J, Env, Net, StrategyConfig{}, /*Owner=*/1);
  const ScheduleVariant *Best = S.bestByCost();
  size_t Feasible = 0;
  size_t AtBestCost = 0;
  for (size_t I = 0; I < S.variants().size(); ++I) {
    const ScheduleVariant &V = S.variants()[I];
    std::string Key = "D" + std::to_string(I + 1);
    Ctx.setWork(Key + ".level", V.Level);
    Ctx.setWork(Key + ".time_bias", V.Bias == OptimizationBias::Time);
    Ctx.setWork(Key + ".feasible", V.feasible());
    if (!V.feasible())
      continue;
    const Distribution &D = V.Result.Dist;
    Ctx.setWork(Key + ".cf", static_cast<uint64_t>(D.costFunction(J)));
    Ctx.setWork(Key + ".econ_cost_x100",
                static_cast<uint64_t>(std::llround(D.economicCost() * 100)));
    Ctx.setWork(Key + ".makespan", static_cast<uint64_t>(D.makespan()));
    ++Feasible;
    if (D.economicCost() == Best->Result.Dist.economicCost())
      ++AtBestCost;
    if (&V == Best)
      Ctx.setWork("cheapest", I + 1);
  }
  Ctx.check("a unique cheapest distribution among alternative supporting "
            "schedules",
            Best && Feasible >= 2 && AtBestCost == 1);
  if (!Best)
    return;

  for (const auto &Task : J.tasks()) {
    const Placement *P = Best->Result.Dist.find(Task.Id);
    std::string Key = "cheapest." + Task.Name;
    Ctx.setWork(Key + ".node", P->NodeId + 1);
    Ctx.setWork(Key + ".start", static_cast<uint64_t>(P->Start));
    Ctx.setWork(Key + ".end", static_cast<uint64_t>(P->End));
  }
  const std::vector<CollisionRecord> &Collisions = Best->Result.Collisions;
  Ctx.setWork("collisions", Collisions.size());
  for (size_t I = 0; I < Collisions.size(); ++I) {
    const CollisionRecord &R = Collisions[I];
    std::string Key = "collision" + std::to_string(I + 1);
    Ctx.setWork(Key + ".task", R.TaskId + 1);
    Ctx.setWork(Key + ".node", R.NodeId + 1);
    Ctx.setWork(Key + ".wanted", static_cast<uint64_t>(R.WantedStart));
    Ctx.setWork(Key + ".got", static_cast<uint64_t>(R.ActualStart));
    Ctx.setWork(Key + ".resolution", static_cast<uint64_t>(R.Resolution));
  }
}

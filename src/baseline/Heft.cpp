//===-- baseline/Heft.cpp - HEFT list scheduler ---------------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "baseline/Heft.h"
#include "core/CostModel.h"
#include "job/Job.h"
#include "resource/Grid.h"
#include "resource/Network.h"
#include "support/Check.h"

#include <algorithm>
#include <limits>

using namespace cws;

namespace {

/// Upward rank: mean execution time plus the maximum over successors of
/// (mean transfer + successor rank).
std::vector<double> upwardRanks(const Job &J, const Grid &Env,
                                const Network &Net) {
  double MeanInvPerf = 0.0;
  for (const auto &N : Env.nodes())
    MeanInvPerf += 1.0 / N.relPerf();
  MeanInvPerf /= static_cast<double>(Env.size());

  // Mean transfer multiplier: a transfer is free on the same node, full
  // price otherwise; with n nodes the chance of distinct nodes is
  // (n - 1) / n.
  double DistinctShare =
      Env.size() > 1
          ? static_cast<double>(Env.size() - 1) / static_cast<double>(Env.size())
          : 0.0;

  std::vector<double> Rank(J.taskCount(), 0.0);
  std::vector<unsigned> Order = J.topoOrder();
  for (auto It = Order.rbegin(); It != Order.rend(); ++It) {
    unsigned TaskId = *It;
    double Best = 0.0;
    for (size_t EdgeIdx : J.outEdges(TaskId)) {
      const DataEdge &E = J.edge(EdgeIdx);
      double Tr = DistinctShare *
                  static_cast<double>(Net.transferTicks(E.BaseTransfer, 0,
                                                        Env.size() > 1 ? 1 : 0));
      Best = std::max(Best, Tr + Rank[E.Dst]);
    }
    Rank[TaskId] =
        static_cast<double>(J.task(TaskId).RefTicks) * MeanInvPerf + Best;
  }
  return Rank;
}

} // namespace

HeftResult cws::scheduleHeft(const Job &J, const Grid &Env, const Network &Net,
                             Tick Now) {
  HeftResult Result;
  if (J.taskCount() == 0) {
    Result.MeetsDeadline = true;
    return Result;
  }
  CWS_CHECK(J.isAcyclic(), "HEFT needs an acyclic job");
  CWS_CHECK(!Env.empty(), "HEFT needs nodes");

  // Every placement starts at or after Release >= Now, so reservations
  // that ended by Now cannot move one.
  Grid Scratch = Env.liveCopy(Now);
  CostModel Cost(Scratch);
  Tick Release = std::max(Now, J.release());

  // Priority order: descending upward rank, ties by task id. Stable
  // against the topological order because ranks strictly decrease along
  // edges.
  std::vector<double> Rank = upwardRanks(J, Scratch, Net);
  std::vector<unsigned> Order(J.taskCount());
  for (unsigned I = 0; I < J.taskCount(); ++I)
    Order[I] = I;
  std::stable_sort(Order.begin(), Order.end(), [&](unsigned A, unsigned B) {
    if (Rank[A] != Rank[B])
      return Rank[A] > Rank[B];
    return A < B;
  });

  constexpr OwnerId HeftOwner = 0xbeef;
  for (unsigned TaskId : Order) {
    unsigned BestNode = 0;
    Tick BestStart = 0;
    Tick BestFinish = std::numeric_limits<Tick>::max();
    for (const auto &N : Scratch.nodes()) {
      Tick Ready = Release;
      for (size_t EdgeIdx : J.inEdges(TaskId)) {
        const DataEdge &E = J.edge(EdgeIdx);
        const Placement *Src = Result.Dist.find(E.Src);
        CWS_CHECK(Src, "HEFT order violated precedence");
        Tick Tr = Net.transferTicks(E.BaseTransfer, Src->NodeId, N.id());
        Ready = std::max(Ready, Src->End + Tr);
      }
      Tick Dur = N.execTicks(J.task(TaskId).RefTicks);
      Tick Start = N.timeline().earliestFit(Ready, Dur);
      if (Start + Dur < BestFinish) {
        BestFinish = Start + Dur;
        BestStart = Start;
        BestNode = N.id();
      }
    }
    Tick Dur = BestFinish - BestStart;
    bool Reserved =
        Scratch.node(BestNode).timeline().reserve(BestStart, BestFinish,
                                                  HeftOwner);
    CWS_CHECK(Reserved, "HEFT placement overlaps");
    Tick Inbound = 0;
    for (size_t EdgeIdx : J.inEdges(TaskId)) {
      const DataEdge &E = J.edge(EdgeIdx);
      const Placement *Src = Result.Dist.find(E.Src);
      Inbound += Net.transferTicks(E.BaseTransfer, Src->NodeId, BestNode);
    }
    Result.Dist.add({TaskId, BestNode, BestStart, BestFinish,
                     Cost.nodeCost(BestNode, Dur) +
                         Cost.transferCost(Inbound)});
  }
  Result.Makespan = Result.Dist.makespan();
  Result.MeetsDeadline = Result.Makespan <= J.deadline();
  return Result;
}

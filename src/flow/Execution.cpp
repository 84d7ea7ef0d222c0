//===-- flow/Execution.cpp - Executing committed schedules ----------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "flow/Execution.h"
#include "job/Job.h"
#include "resource/Grid.h"
#include "resource/Network.h"
#include "support/Check.h"

#include <algorithm>

using namespace cws;

ExecutionResult cws::executeDistribution(const Job &J, const Distribution &D,
                                         const Grid &Env, Prng &Rng,
                                         const ExecutionConfig &Config) {
  CWS_CHECK(Config.FactorLo > 0.0 && Config.FactorLo <= Config.FactorHi,
            "invalid duration factor range");
  CWS_CHECK(Config.MaxExtension >= 0, "negative extension");
  CWS_CHECK(D.covers(J), "executing an incomplete distribution");

  // Transfers are re-evaluated with the plan's data policy and bounded
  // by the planned gap of each edge: the plan already demonstrated the
  // data can arrive within that window, and the replicas it created
  // still exist at execution time.
  Network Net;
  DataPolicy Policy(Config.DataKind, Net, Config.DataConfig);

  ExecutionResult Result;
  Result.Tasks.resize(J.taskCount());
  std::vector<bool> Done(J.taskCount(), false);

  for (unsigned TaskId : J.topoOrder()) {
    const Placement *P = D.find(TaskId);
    TaskExecution &E = Result.Tasks[TaskId];
    E.TaskId = TaskId;
    E.NodeId = P->NodeId;

    // Data readiness from actual predecessor finishes.
    Tick Ready = 0;
    for (size_t EdgeIdx : J.inEdges(TaskId)) {
      const DataEdge &Edge = J.edge(EdgeIdx);
      CWS_CHECK(Done[Edge.Src], "topological execution order violated");
      const TaskExecution &Pred = Result.Tasks[Edge.Src];
      const Placement *PredPlan = D.find(Edge.Src);
      Tick Tr =
          Policy.previewTicks(Edge.Src, Edge.BaseTransfer, Pred.NodeId,
                              P->NodeId);
      Tick PlannedGap = std::max<Tick>(0, P->Start - PredPlan->End);
      Ready = std::max(Ready, Pred.End + std::min(Tr, PlannedGap));
    }

    // Opportunistic early start: allowed when the lead-in before the
    // reservation is completely unreserved (reservations — even this
    // job's own — are hard boundaries).
    Tick Start = P->Start;
    if (Ready < P->Start &&
        Env.node(P->NodeId).timeline().isFree(Ready, P->Start))
      Start = Ready;
    Start = std::max(Start, Ready);

    Tick Reserved = P->End - P->Start;
    double Factor = Rng.uniformReal(Config.FactorLo, Config.FactorHi);
    Tick Actual = std::max<Tick>(
        1, ceilTicks(static_cast<double>(Reserved) * Factor - 1e-9));
    Tick End = Start + Actual;

    if (End > P->End) {
      // The wall limit is hit: the local system grants an extension only
      // when it is short and the node has no one waiting.
      E.Overran = true;
      ++Result.Overruns;
      Tick Overhang = End - P->End;
      bool Grantable = Overhang <= Config.MaxExtension &&
                       Env.node(P->NodeId).timeline().isFree(P->End, End);
      if (!Grantable) {
        E.Killed = true;
        ++Result.Kills;
        E.Start = Start;
        E.End = std::min(End, P->End);
        Result.Succeeded = false;
        Result.MetDeadline = false;
        return Result;
      }
    } else if (End < P->End) {
      ++Result.EarlyFinishes;
    }

    E.Start = Start;
    E.End = End;
    Done[TaskId] = true;
    Result.Completion = std::max(Result.Completion, End);
  }

  Result.Succeeded = true;
  Result.MetDeadline = Result.Completion <= J.deadline();
  Result.CompletionGain = D.makespan() - Result.Completion;
  return Result;
}

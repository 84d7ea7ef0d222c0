//===-- core/CriticalWork.cpp - Critical work extraction ------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "core/CriticalWork.h"
#include "job/Job.h"
#include "support/Check.h"

#include <algorithm>

using namespace cws;

CriticalWork cws::findCriticalWork(const Job &J,
                                   const std::vector<unsigned> &Order,
                                   const std::vector<bool> &Assigned) {
  CWS_CHECK(Assigned.size() == J.taskCount(),
            "assignment mask does not match the job");
  CWS_CHECK(Order.size() == J.taskCount(),
            "critical work needs the topological order of an acyclic job");

  // Longest path over the subgraph induced by unassigned tasks. Best[t]
  // is the best chain length ending at t; From[t] reconstructs it.
  constexpr Tick None = -1;
  std::vector<Tick> Best(J.taskCount(), None);
  std::vector<int64_t> From(J.taskCount(), -1);
  Tick BestLen = None;
  int64_t BestEnd = -1;
  for (unsigned TaskId : Order) {
    if (Assigned[TaskId])
      continue;
    Tick Incoming = 0;
    int64_t Via = -1;
    for (size_t EdgeIdx : J.inEdges(TaskId)) {
      const DataEdge &E = J.edge(EdgeIdx);
      if (Assigned[E.Src] || Best[E.Src] == None)
        continue;
      Tick Candidate = Best[E.Src] + E.BaseTransfer;
      if (Candidate > Incoming) {
        Incoming = Candidate;
        Via = E.Src;
      }
    }
    Best[TaskId] = Incoming + J.task(TaskId).RefTicks;
    From[TaskId] = Via;
    if (Best[TaskId] > BestLen) {
      BestLen = Best[TaskId];
      BestEnd = TaskId;
    }
  }

  CriticalWork Work;
  if (BestEnd < 0)
    return Work;
  Work.RefLength = BestLen;
  // Walk the chain back once to size it, then fill it from its end.
  size_t Length = 0;
  for (int64_t At = BestEnd; At >= 0; At = From[static_cast<size_t>(At)])
    ++Length;
  Work.TaskIds.resize(Length);
  for (int64_t At = BestEnd; At >= 0; At = From[static_cast<size_t>(At)])
    Work.TaskIds[--Length] = static_cast<unsigned>(At);
  return Work;
}

std::vector<CriticalWork> cws::criticalWorkPhases(const Job &J) {
  std::vector<CriticalWork> Phases;
  std::vector<unsigned> Order = J.topoOrder();
  std::vector<bool> Assigned(J.taskCount(), false);
  size_t Remaining = J.taskCount();
  while (Remaining > 0) {
    CriticalWork Work = findCriticalWork(J, Order, Assigned);
    CWS_CHECK(!Work.TaskIds.empty(),
              "no critical work although tasks remain");
    for (unsigned TaskId : Work.TaskIds) {
      CWS_CHECK(!Assigned[TaskId], "task assigned twice");
      Assigned[TaskId] = true;
      --Remaining;
    }
    Phases.push_back(std::move(Work));
  }
  return Phases;
}

namespace {

/// DFS enumerator for allFullChains.
class ChainEnumerator {
public:
  ChainEnumerator(const Job &J, size_t MaxChains)
      : J(J), MaxChains(MaxChains) {}

  std::vector<CriticalWork> run() {
    for (unsigned Source : J.sources()) {
      Prefix.push_back(Source);
      descend(Source, J.task(Source).RefTicks);
      Prefix.pop_back();
    }
    std::stable_sort(Found.begin(), Found.end(),
                     [](const CriticalWork &A, const CriticalWork &B) {
                       return A.RefLength > B.RefLength;
                     });
    return std::move(Found);
  }

private:
  void descend(unsigned TaskId, Tick Length) {
    if (Found.size() >= MaxChains)
      return;
    if (J.outEdges(TaskId).empty()) {
      Found.push_back({Prefix, Length});
      return;
    }
    for (size_t EdgeIdx : J.outEdges(TaskId)) {
      const DataEdge &E = J.edge(EdgeIdx);
      Prefix.push_back(E.Dst);
      descend(E.Dst, Length + E.BaseTransfer + J.task(E.Dst).RefTicks);
      Prefix.pop_back();
    }
  }

  const Job &J;
  size_t MaxChains;
  std::vector<unsigned> Prefix;
  std::vector<CriticalWork> Found;
};

} // namespace

std::vector<CriticalWork> cws::allFullChains(const Job &J, size_t MaxChains) {
  return ChainEnumerator(J, MaxChains).run();
}

//===-- job/Job.cpp - Compound jobs as information graphs -----------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "job/Job.h"
#include "support/Check.h"

#include <algorithm>
#include <limits>

using namespace cws;

void Job::Adjacency::addTask() {
  if (Offset.empty())
    Offset.push_back(0);
  Offset.push_back(Offset.back());
}

void Job::Adjacency::insert(unsigned TaskId, uint32_t EdgeIdx) {
  // Behind the task's last edge, so each list keeps insertion order; the
  // later tasks' lists shift up by one.
  Edge.insert(Edge.begin() + Offset[TaskId + 1], EdgeIdx);
  for (size_t T = TaskId + 1; T < Offset.size(); ++T)
    ++Offset[T];
}

unsigned Job::addTask(std::string Name, Tick RefTicks, double Volume) {
  CWS_CHECK(RefTicks > 0, "task needs a positive reference time");
  CWS_CHECK(Volume >= 0.0, "task volume must be non-negative");
  auto TaskId = static_cast<unsigned>(Tasks.size());
  Tasks.push_back({TaskId, std::move(Name), RefTicks, Volume});
  In.addTask();
  Out.addTask();
  return TaskId;
}

void Job::addEdge(unsigned Src, unsigned Dst, Tick BaseTransfer) {
  CWS_CHECK(Src < Tasks.size() && Dst < Tasks.size(),
            "edge endpoint out of range");
  CWS_CHECK(Src != Dst, "self-dependency is not allowed");
  CWS_CHECK(BaseTransfer >= 0, "negative transfer time");
  CWS_CHECK(Edges.size() < std::numeric_limits<uint32_t>::max(),
            "too many edges");
  auto EdgeIdx = static_cast<uint32_t>(Edges.size());
  Edges.push_back({Src, Dst, BaseTransfer});
  Out.insert(Src, EdgeIdx);
  In.insert(Dst, EdgeIdx);
}

void Job::reserve(size_t TaskCount, size_t EdgeCount) {
  Tasks.reserve(TaskCount);
  Edges.reserve(EdgeCount);
  for (Adjacency *A : {&In, &Out}) {
    A->Offset.reserve(TaskCount + 1);
    A->Edge.reserve(EdgeCount);
  }
}

const Task &Job::task(unsigned TaskId) const {
  CWS_CHECK(TaskId < Tasks.size(), "task id out of range");
  return Tasks[TaskId];
}

const DataEdge &Job::edge(size_t EdgeIdx) const {
  CWS_CHECK(EdgeIdx < Edges.size(), "edge index out of range");
  return Edges[EdgeIdx];
}

std::span<const uint32_t> Job::inEdges(unsigned TaskId) const {
  CWS_CHECK(TaskId < Tasks.size(), "task id out of range");
  return In.of(TaskId);
}

std::span<const uint32_t> Job::outEdges(unsigned TaskId) const {
  CWS_CHECK(TaskId < Tasks.size(), "task id out of range");
  return Out.of(TaskId);
}

std::vector<unsigned> Job::sources() const {
  std::vector<unsigned> Result;
  for (const auto &T : Tasks)
    if (In.of(T.Id).empty())
      Result.push_back(T.Id);
  return Result;
}

std::vector<unsigned> Job::sinks() const {
  std::vector<unsigned> Result;
  for (const auto &T : Tasks)
    if (Out.of(T.Id).empty())
      Result.push_back(T.Id);
  return Result;
}

std::vector<unsigned> Job::topoOrder() const {
  std::vector<unsigned> InDegree(Tasks.size(), 0);
  for (const auto &E : Edges)
    ++InDegree[E.Dst];
  std::vector<unsigned> Ready;
  for (const auto &T : Tasks)
    if (InDegree[T.Id] == 0)
      Ready.push_back(T.Id);
  std::vector<unsigned> Order;
  Order.reserve(Tasks.size());
  // Kahn's algorithm; Ready is kept as a stack for determinism.
  while (!Ready.empty()) {
    unsigned Next = Ready.back();
    Ready.pop_back();
    Order.push_back(Next);
    for (size_t EdgeIdx : Out.of(Next))
      if (--InDegree[Edges[EdgeIdx].Dst] == 0)
        Ready.push_back(Edges[EdgeIdx].Dst);
  }
  if (Order.size() != Tasks.size())
    return {};
  return Order;
}

bool Job::isAcyclic() const {
  return Tasks.empty() || !topoOrder().empty();
}

Tick Job::criticalPathRefTicks() const {
  std::vector<unsigned> Order = topoOrder();
  CWS_CHECK(Order.size() == Tasks.size() || Tasks.empty(),
            "critical path of a cyclic graph");
  std::vector<Tick> Longest(Tasks.size(), 0);
  Tick Best = 0;
  for (unsigned TaskId : Order) {
    Tick Arrival = 0;
    for (size_t EdgeIdx : In.of(TaskId)) {
      const DataEdge &E = Edges[EdgeIdx];
      Arrival = std::max(Arrival, Longest[E.Src] + E.BaseTransfer);
    }
    Longest[TaskId] = Arrival + Tasks[TaskId].RefTicks;
    Best = std::max(Best, Longest[TaskId]);
  }
  return Best;
}

Tick Job::totalRefTicks() const {
  Tick Sum = 0;
  for (const auto &T : Tasks)
    Sum += T.RefTicks;
  return Sum;
}

Job cws::makeFig2Job() {
  Job J;
  // Reference times are the Ti1 row of Fig. 2a; volumes are the Vij row.
  unsigned P1 = J.addTask("P1", 2, 20);
  unsigned P2 = J.addTask("P2", 3, 30);
  unsigned P3 = J.addTask("P3", 1, 10);
  unsigned P4 = J.addTask("P4", 2, 20);
  unsigned P5 = J.addTask("P5", 1, 10);
  unsigned P6 = J.addTask("P6", 2, 20);
  // D1..D8, each one tick, reproducing the critical work lengths
  // 12/11/10/9 of Section 3.
  J.addEdge(P1, P2, 1); // D1
  J.addEdge(P1, P3, 1); // D2
  J.addEdge(P2, P4, 1); // D3
  J.addEdge(P2, P5, 1); // D4
  J.addEdge(P3, P4, 1); // D5
  J.addEdge(P3, P5, 1); // D6
  J.addEdge(P4, P6, 1); // D7
  J.addEdge(P5, P6, 1); // D8
  J.setDeadline(20);
  return J;
}

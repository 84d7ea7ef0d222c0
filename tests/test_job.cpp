//===-- tests/test_job.cpp - Compound job unit tests ----------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "job/Job.h"
#include "job/Generator.h"
#include "support/Prng.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>

using namespace cws;

TEST(Job, AddTaskAssignsDenseIds) {
  Job J;
  EXPECT_EQ(J.addTask("a", 1, 10), 0u);
  EXPECT_EQ(J.addTask("b", 2, 20), 1u);
  EXPECT_EQ(J.taskCount(), 2u);
  EXPECT_EQ(J.task(1).Name, "b");
  EXPECT_EQ(J.task(1).RefTicks, 2);
  EXPECT_DOUBLE_EQ(J.task(1).Volume, 20.0);
}

TEST(Job, EdgesBuildAdjacency) {
  Job J = makeDiamondJob();
  EXPECT_EQ(J.edgeCount(), 4u);
  EXPECT_EQ(J.outEdges(0).size(), 2u);
  EXPECT_EQ(J.inEdges(3).size(), 2u);
  EXPECT_EQ(J.inEdges(0).size(), 0u);
  EXPECT_EQ(J.outEdges(3).size(), 0u);
}

TEST(Job, SourcesAndSinks) {
  Job J = makeDiamondJob();
  EXPECT_EQ(J.sources(), (std::vector<unsigned>{0}));
  EXPECT_EQ(J.sinks(), (std::vector<unsigned>{3}));
}

TEST(Job, TopoOrderRespectsEdges) {
  Job J = makeDiamondJob();
  std::vector<unsigned> Order = J.topoOrder();
  ASSERT_EQ(Order.size(), 4u);
  auto PosOf = [&](unsigned T) {
    return std::find(Order.begin(), Order.end(), T) - Order.begin();
  };
  for (const auto &E : J.edges())
    EXPECT_LT(PosOf(E.Src), PosOf(E.Dst));
}

TEST(Job, CycleIsDetected) {
  Job J;
  unsigned A = J.addTask("a", 1, 10);
  unsigned B = J.addTask("b", 1, 10);
  J.addEdge(A, B, 1);
  J.addEdge(B, A, 1);
  EXPECT_FALSE(J.isAcyclic());
  EXPECT_TRUE(J.topoOrder().empty());
}

TEST(Job, EmptyJobIsAcyclic) {
  Job J;
  EXPECT_TRUE(J.isAcyclic());
  EXPECT_EQ(J.criticalPathRefTicks(), 0);
}

TEST(Job, CriticalPathCountsTransfers) {
  Job J = makeChainJob();
  // 2 + 1 + 3 + 1 + 2 = 9.
  EXPECT_EQ(J.criticalPathRefTicks(), 9);
}

TEST(Job, CriticalPathPicksLongestBranch) {
  Job J = makeDiamondJob();
  // A(2) +1+ B(3) +1+ D(2) = 9 via B; via C it is 7.
  EXPECT_EQ(J.criticalPathRefTicks(), 9);
}

TEST(Job, TotalRefTicks) {
  Job J = makeDiamondJob();
  EXPECT_EQ(J.totalRefTicks(), 8);
}

TEST(Job, ReleaseAndDeadline) {
  Job J;
  J.addTask("a", 1, 1);
  J.setRelease(5);
  J.setDeadline(50);
  EXPECT_EQ(J.release(), 5);
  EXPECT_EQ(J.deadline(), 50);
}

TEST(Fig2Job, MatchesPaperStructure) {
  Job J = makeFig2Job();
  EXPECT_EQ(J.taskCount(), 6u);
  EXPECT_EQ(J.edgeCount(), 8u); // D1 .. D8
  EXPECT_EQ(J.deadline(), 20);
  EXPECT_EQ(J.sources(), (std::vector<unsigned>{0}));  // P1
  EXPECT_EQ(J.sinks(), (std::vector<unsigned>{5}));    // P6
  EXPECT_TRUE(J.isAcyclic());
}

TEST(Fig2Job, VolumesAndRefTimesMatchTable) {
  Job J = makeFig2Job();
  const Tick Refs[] = {2, 3, 1, 2, 1, 2};
  const double Vols[] = {20, 30, 10, 20, 10, 20};
  for (unsigned I = 0; I < 6; ++I) {
    EXPECT_EQ(J.task(I).RefTicks, Refs[I]) << "P" << I + 1;
    EXPECT_DOUBLE_EQ(J.task(I).Volume, Vols[I]) << "P" << I + 1;
  }
}

TEST(Fig2Job, CriticalPathIsTwelve) {
  // The longest critical work of Section 3 is 12 units including data
  // transfer times.
  EXPECT_EQ(makeFig2Job().criticalPathRefTicks(), 12);
}

namespace {

/// Heap blocks allocated through the global `operator new` of this test
/// binary (replaced below), so a test can count what a copy allocates.
size_t HeapBlocks = 0;

/// Edge indices of \p J's edges whose Dst (\p Incoming) or Src equals
/// \p TaskId, in insertion order: the reference adjacency, from
/// `edges()` alone.
std::vector<size_t> referenceAdjacency(const Job &J, unsigned TaskId,
                                       bool Incoming) {
  std::vector<size_t> Out;
  for (size_t I = 0; I < J.edgeCount(); ++I)
    if ((Incoming ? J.edges()[I].Dst : J.edges()[I].Src) == TaskId)
      Out.push_back(I);
  return Out;
}

void expectAdjacencyInInsertionOrder(const Job &J) {
  for (unsigned T = 0; T < J.taskCount(); ++T) {
    std::vector<size_t> In(J.inEdges(T).begin(), J.inEdges(T).end());
    std::vector<size_t> Out(J.outEdges(T).begin(), J.outEdges(T).end());
    EXPECT_EQ(In, referenceAdjacency(J, T, /*Incoming=*/true)) << "task " << T;
    EXPECT_EQ(Out, referenceAdjacency(J, T, /*Incoming=*/false))
        << "task " << T;
  }
}

/// Kahn's algorithm with a stack of ready tasks, walking each task's
/// out-edges in insertion order, computed from `edges()` alone.
std::vector<unsigned> referenceTopoOrder(const Job &J) {
  std::vector<unsigned> InDegree(J.taskCount(), 0);
  for (const DataEdge &E : J.edges())
    ++InDegree[E.Dst];
  std::vector<unsigned> Ready, Order;
  for (unsigned T = 0; T < J.taskCount(); ++T)
    if (InDegree[T] == 0)
      Ready.push_back(T);
  while (!Ready.empty()) {
    unsigned Next = Ready.back();
    Ready.pop_back();
    Order.push_back(Next);
    for (size_t I : referenceAdjacency(J, Next, /*Incoming=*/false))
      if (--InDegree[J.edges()[I].Dst] == 0)
        Ready.push_back(J.edges()[I].Dst);
  }
  return Order;
}

} // namespace

// Counts every block this binary allocates; the test below reads the
// count around one copy. Out of line, so the compiler does not pair an
// inlined `new` with the `free` inside `delete`.
[[gnu::noinline]] void *operator new(std::size_t Size) {
  ++HeapBlocks;
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void *P) noexcept { std::free(P); }
[[gnu::noinline]] void operator delete(void *P, std::size_t) noexcept {
  std::free(P);
}

TEST(Job, AdjacencyKeepsInsertionOrder) {
  // Random jobs whose tasks and edges are added interleaved, with
  // parallel edges. Edges run from a lower to a higher task id, so every
  // job is acyclic.
  Prng Rng(2009);
  for (int Trial = 0; Trial < 200; ++Trial) {
    Job J(static_cast<unsigned>(Trial));
    J.addTask("t0", Rng.uniformInt(1, 5), 1.0);
    int Steps = static_cast<int>(Rng.uniformInt(1, 60));
    for (int S = 0; S < Steps; ++S) {
      if (J.taskCount() < 2 || Rng.bernoulli(0.3)) {
        J.addTask("t" + std::to_string(J.taskCount()), Rng.uniformInt(1, 5),
                  1.0);
        continue;
      }
      if (J.edgeCount() > 0 && Rng.bernoulli(0.2)) {
        // A parallel edge: the same endpoints again.
        DataEdge E = J.edges()[Rng.index(J.edgeCount())];
        Tick Transfer = Rng.uniformInt(0, 3);
        J.addEdge(E.Src, E.Dst, Transfer);
        continue;
      }
      auto Src = static_cast<unsigned>(Rng.index(J.taskCount() - 1));
      auto Dst = static_cast<unsigned>(
          Rng.uniformInt(Src + 1, static_cast<int64_t>(J.taskCount()) - 1));
      Tick Transfer = Rng.uniformInt(0, 3);
      J.addEdge(Src, Dst, Transfer);
    }
    SCOPED_TRACE("trial " + std::to_string(Trial));
    expectAdjacencyInInsertionOrder(J);

    std::vector<unsigned> Order = referenceTopoOrder(J);
    ASSERT_EQ(Order.size(), J.taskCount());
    EXPECT_EQ(J.topoOrder(), Order);
    std::vector<unsigned> Sources, Sinks;
    std::vector<Tick> Longest(J.taskCount(), 0);
    Tick Critical = 0;
    for (unsigned T = 0; T < J.taskCount(); ++T) {
      if (referenceAdjacency(J, T, /*Incoming=*/true).empty())
        Sources.push_back(T);
      if (referenceAdjacency(J, T, /*Incoming=*/false).empty())
        Sinks.push_back(T);
    }
    for (unsigned T : Order) {
      Tick Arrival = 0;
      for (const DataEdge &E : J.edges())
        if (E.Dst == T)
          Arrival = std::max(Arrival, Longest[E.Src] + E.BaseTransfer);
      Longest[T] = Arrival + J.task(T).RefTicks;
      Critical = std::max(Critical, Longest[T]);
    }
    EXPECT_EQ(J.sources(), Sources);
    EXPECT_EQ(J.sinks(), Sinks);
    EXPECT_EQ(J.criticalPathRefTicks(), Critical);

    Job Copied(J);
    expectAdjacencyInInsertionOrder(Copied);
    Job Assigned;
    Assigned = J;
    expectAdjacencyInInsertionOrder(Assigned);
    Job Moved(std::move(Copied));
    expectAdjacencyInInsertionOrder(Moved);
    Job MoveAssigned;
    MoveAssigned = std::move(Assigned);
    expectAdjacencyInInsertionOrder(MoveAssigned);
    EXPECT_EQ(MoveAssigned.topoOrder(), Order);
    EXPECT_EQ(MoveAssigned.criticalPathRefTicks(), Critical);
  }
}

TEST(Job, CopyTakesAFixedNumberOfHeapBlocks) {
  // A job's storage is a fixed set of arrays, not one list per task:
  // copying a generated job takes as many heap blocks at 40 tasks as at
  // 2. Every task name is short enough to live inside its string.
  std::optional<size_t> Blocks;
  for (unsigned Tasks = 2; Tasks <= 40; ++Tasks) {
    WorkloadConfig WC;
    WC.MinTasks = WC.MaxTasks = Tasks;
    JobGenerator Gen(WC, Tasks);
    Job J = Gen.next();
    while (J.edgeCount() == 0)
      J = Gen.next();
    size_t Before = HeapBlocks;
    Job Copy(J);
    size_t Taken = HeapBlocks - Before;
    EXPECT_EQ(Copy.taskCount(), Tasks);
    if (!Blocks)
      Blocks = Taken;
    EXPECT_EQ(Taken, *Blocks) << Tasks << " tasks";
  }
}

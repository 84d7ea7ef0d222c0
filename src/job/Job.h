//===-- job/Job.h - Compound jobs as information graphs ---------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The application model: a compound (multiprocessor) job is a DAG — the
/// paper's "information graph" — whose vertices are heterogeneous tasks
/// (computation volume + reference execution time) and whose edges are
/// data transfers. Each task runs on a single node; completing the job
/// requires co-allocating the tasks to (possibly different) nodes.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_JOB_JOB_H
#define CWS_JOB_JOB_H

#include "sim/Time.h"

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace cws {

/// One task of a compound job.
struct Task {
  unsigned Id;
  std::string Name;
  /// Execution time on a reference (RelPerf = 1) node; the first row of
  /// the paper's estimation table.
  Tick RefTicks;
  /// Relative computation volume V (numerator of the paper's cost
  /// function CF = sum V / T).
  double Volume;
};

/// A data dependency: Dst may start only after Src's output arrives.
struct DataEdge {
  unsigned Src;
  unsigned Dst;
  /// Transfer time between two distinct nodes on the reference network.
  Tick BaseTransfer;
};

/// A compound job: task DAG, data edges, release time and the fixed
/// completion time (deadline) its user expects — the QoS contract.
class Job {
public:
  explicit Job(unsigned Id = 0) : Id(Id) {}

  unsigned id() const { return Id; }
  void setId(unsigned NewId) { Id = NewId; }

  /// Adds a task; returns its id (dense, starting at 0).
  unsigned addTask(std::string Name, Tick RefTicks, double Volume);

  /// Adds a data edge Src -> Dst. Both tasks must exist; self-edges are
  /// rejected via CWS_CHECK. Costs O(tasks + edges): the edge is inserted
  /// into both flat adjacency lists.
  void addEdge(unsigned Src, unsigned Dst, Tick BaseTransfer);

  /// Makes room for \p TaskCount tasks and \p EdgeCount edges in total,
  /// so a builder that knows the job's size allocates each array once and
  /// leaves no spare capacity.
  void reserve(size_t TaskCount, size_t EdgeCount);

  size_t taskCount() const { return Tasks.size(); }
  size_t edgeCount() const { return Edges.size(); }

  const Task &task(unsigned TaskId) const;
  const DataEdge &edge(size_t EdgeIdx) const;
  const std::vector<Task> &tasks() const { return Tasks; }
  const std::vector<DataEdge> &edges() const { return Edges; }

  /// Edge indices entering / leaving a task, in insertion order.
  std::span<const uint32_t> inEdges(unsigned TaskId) const;
  std::span<const uint32_t> outEdges(unsigned TaskId) const;

  /// Tasks without predecessors / successors.
  std::vector<unsigned> sources() const;
  std::vector<unsigned> sinks() const;

  /// True when the graph is acyclic (a job must be).
  bool isAcyclic() const;

  /// Topological order; empty when the graph has a cycle.
  std::vector<unsigned> topoOrder() const;

  /// Length of the longest source-to-sink chain counting reference
  /// execution times plus base transfer times — the length measure the
  /// critical works method ranks chains by.
  Tick criticalPathRefTicks() const;

  /// Sum of all reference execution times (total work at RelPerf 1).
  Tick totalRefTicks() const;

  Tick release() const { return Release; }
  void setRelease(Tick T) { Release = T; }

  /// The user's fixed completion time, absolute.
  Tick deadline() const { return Deadline; }
  void setDeadline(Tick T) { Deadline = T; }

private:
  /// The edge lists of one direction, flat: task T's edge indices are
  /// Edge[Offset[T], Offset[T + 1]) in insertion order. Offset holds
  /// taskCount() + 1 entries once the job has a task.
  struct Adjacency {
    std::vector<uint32_t> Offset;
    std::vector<uint32_t> Edge;

    void addTask();
    void insert(unsigned TaskId, uint32_t EdgeIdx);
    std::span<const uint32_t> of(unsigned TaskId) const {
      return std::span<const uint32_t>(Edge).subspan(
          Offset[TaskId], Offset[TaskId + 1] - Offset[TaskId]);
    }
  };

  unsigned Id;
  std::vector<Task> Tasks;
  std::vector<DataEdge> Edges;
  Adjacency In;
  Adjacency Out;
  Tick Release = 0;
  Tick Deadline = TickMax;
};

/// Builds the exact compound job of the paper's Fig. 2a: tasks P1..P6
/// (ids 0..5), eight data transfers D1..D8 of one tick each, reference
/// times {2, 3, 1, 2, 1, 2} and volumes {20, 30, 10, 20, 10, 20}.
Job makeFig2Job();

} // namespace cws

#endif // CWS_JOB_JOB_H

//===-- job/Generator.cpp - Randomized compound-job workloads -------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "job/Generator.h"
#include "support/Check.h"

#include <string>

using namespace cws;

JobGenerator::JobGenerator(WorkloadConfig Config, uint64_t Seed)
    : Config(Config), Rng(Seed) {
  CWS_CHECK(Config.MinTasks >= 2 && Config.MinTasks <= Config.MaxTasks,
            "invalid task count range");
  CWS_CHECK(Config.MaxWidth >= 1, "invalid layer width");
  CWS_CHECK(Config.RefTicksLo >= 1 && Config.RefTicksLo <= Config.RefTicksHi,
            "invalid reference tick range");
  CWS_CHECK(Config.TransferLo >= 0 && Config.TransferLo <= Config.TransferHi,
            "invalid transfer tick range");
  CWS_CHECK(Config.DeadlineSlack > 0.0, "deadline slack must be positive");
  CWS_CHECK(Config.DeadlineSlack <= Config.maxDeadlineSlack(),
            "deadline slack overflows the tick range");
}

Job JobGenerator::next(Tick Release) {
  Job J(NextId++);
  auto TaskCount = static_cast<unsigned>(
      Rng.uniformInt(Config.MinTasks, Config.MaxTasks));

  // Partition tasks into layers of width 1..MaxWidth; the layer sequence
  // defines precedence (every task of layer l+1 depends on at least one
  // task of layer l). So the graph is acyclic and its sources are the
  // first layer, but it need not be connected: a first-layer task that
  // no later task picks has no edge at all. Tasks and edges are drawn
  // first and added once their counts are known, so the job holds no
  // spare capacity.
  std::vector<std::vector<unsigned>> Layers;
  std::vector<Tick> Refs;
  Refs.reserve(TaskCount);
  while (Refs.size() < TaskCount) {
    auto Created = static_cast<unsigned>(Refs.size());
    auto Width = static_cast<unsigned>(Rng.uniformInt(
        1, std::min<int64_t>(Config.MaxWidth, TaskCount - Created)));
    std::vector<unsigned> Layer;
    for (unsigned I = 0; I < Width; ++I) {
      Layer.push_back(static_cast<unsigned>(Refs.size()));
      Refs.push_back(Rng.uniformInt(Config.RefTicksLo, Config.RefTicksHi));
    }
    Layers.push_back(std::move(Layer));
  }

  auto RandomTransfer = [&] {
    return Rng.uniformInt(Config.TransferLo, Config.TransferHi);
  };

  std::vector<DataEdge> Drawn;
  for (size_t L = 1; L < Layers.size(); ++L) {
    const auto &Prev = Layers[L - 1];
    for (unsigned Dst : Layers[L]) {
      // Mandatory parent: every task after the first layer has a
      // predecessor.
      unsigned Parent = Prev[Rng.index(Prev.size())];
      Drawn.push_back({Parent, Dst, RandomTransfer()});
      for (unsigned Src : Prev)
        if (Src != Parent && Rng.bernoulli(Config.EdgeDensity))
          Drawn.push_back({Src, Dst, RandomTransfer()});
    }
  }

  J.reserve(TaskCount, Drawn.size());
  for (size_t T = 0; T < Refs.size(); ++T)
    J.addTask("T" + std::to_string(T), Refs[T],
              Config.VolumePerRefTick * static_cast<double>(Refs[T]));
  for (const DataEdge &E : Drawn)
    J.addEdge(E.Src, E.Dst, E.BaseTransfer);

  J.setRelease(Release);
  double Span = Config.DeadlineSlack *
                static_cast<double>(J.criticalPathRefTicks());
  J.setDeadline(Release + ceilTicks(Span));
  return J;
}

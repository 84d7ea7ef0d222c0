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
  // no later task picks has no edge at all.
  std::vector<std::vector<unsigned>> Layers;
  unsigned Created = 0;
  while (Created < TaskCount) {
    auto Width = static_cast<unsigned>(Rng.uniformInt(
        1, std::min<int64_t>(Config.MaxWidth, TaskCount - Created)));
    std::vector<unsigned> Layer;
    for (unsigned I = 0; I < Width; ++I) {
      Tick Ref = Rng.uniformInt(Config.RefTicksLo, Config.RefTicksHi);
      double Volume = Config.VolumePerRefTick * static_cast<double>(Ref);
      unsigned TaskId =
          J.addTask("T" + std::to_string(Created), Ref, Volume);
      Layer.push_back(TaskId);
      ++Created;
    }
    Layers.push_back(std::move(Layer));
  }

  auto RandomTransfer = [&] {
    return Rng.uniformInt(Config.TransferLo, Config.TransferHi);
  };

  for (size_t L = 1; L < Layers.size(); ++L) {
    const auto &Prev = Layers[L - 1];
    for (unsigned Dst : Layers[L]) {
      // Mandatory parent: every task after the first layer has a
      // predecessor.
      unsigned Parent = Prev[Rng.index(Prev.size())];
      J.addEdge(Parent, Dst, RandomTransfer());
      for (unsigned Src : Prev)
        if (Src != Parent && Rng.bernoulli(Config.EdgeDensity))
          J.addEdge(Src, Dst, RandomTransfer());
    }
  }

  J.setRelease(Release);
  double Span = Config.DeadlineSlack *
                static_cast<double>(J.criticalPathRefTicks());
  J.setDeadline(Release + ceilTicks(Span));
  return J;
}

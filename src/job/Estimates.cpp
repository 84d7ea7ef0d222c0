//===-- job/Estimates.cpp - User execution-time estimations ---------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "job/Estimates.h"
#include "resource/Grid.h"
#include "support/Check.h"

#include <algorithm>
#include <cmath>

using namespace cws;

EstimateGrid::EstimateGrid(const Job &J, std::vector<double> Levels)
    : PerfLevels(std::move(Levels)) {
  CWS_CHECK(!PerfLevels.empty(), "estimate grid needs at least one level");
  CWS_CHECK(std::is_sorted(PerfLevels.begin(), PerfLevels.end(),
                           std::greater<double>()),
            "performance levels must be sorted fastest first");
  CWS_CHECK(PerfLevels.back() > 0.0, "performance levels must be positive");
  Table.resize(J.taskCount());
  for (const auto &T : J.tasks()) {
    Table[T.Id].reserve(PerfLevels.size());
    for (double Perf : PerfLevels) {
      double Exact = static_cast<double>(T.RefTicks) / Perf;
      Table[T.Id].push_back(ceilTicks(Exact - 1e-9));
    }
  }
}

double EstimateGrid::perfAt(size_t Level) const {
  CWS_CHECK(Level < PerfLevels.size(), "level out of range");
  return PerfLevels[Level];
}

Tick EstimateGrid::ticks(unsigned TaskId, size_t Level) const {
  CWS_CHECK(TaskId < Table.size(), "task id out of range");
  CWS_CHECK(Level < PerfLevels.size(), "level out of range");
  return Table[TaskId][Level];
}

std::vector<size_t> EstimateGrid::coveredLevels(bool BestWorstOnly) const {
  if (!BestWorstOnly || PerfLevels.size() <= 2) {
    std::vector<size_t> All(PerfLevels.size());
    for (size_t I = 0; I < All.size(); ++I)
      All[I] = I;
    return All;
  }
  return {0, PerfLevels.size() - 1};
}

std::vector<double> EstimateGrid::environmentLevels(const Grid &G) {
  std::vector<double> Levels;
  for (const auto &N : G.nodes())
    Levels.push_back(N.relPerf());
  std::sort(Levels.begin(), Levels.end(), std::greater<double>());
  Levels.erase(std::unique(Levels.begin(), Levels.end(),
                           [](double A, double B) {
                             return std::abs(A - B) < 1e-12;
                           }),
               Levels.end());
  return Levels;
}

//===-- sweep/Stats.cpp - Pooled per-scenario statistics ------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "sweep/Stats.h"
#include "support/Check.h"
#include "support/Stats.h"

#include <algorithm>
#include <cmath>

using namespace cws;
using namespace cws::sweep;

SweepAccumulator::SweepAccumulator(
    std::vector<std::pair<std::string,
                          std::vector<std::pair<std::string, std::string>>>>
        Scenarios,
    uint64_t Seeds)
    : Scenarios(std::move(Scenarios)), Seeds(Seeds) {
  Samples.resize(this->Scenarios.size());
}

void SweepAccumulator::addRun(size_t ScenarioIndex,
                              const std::map<std::string, double> &Indicators) {
  CWS_CHECK(ScenarioIndex < Samples.size(), "scenario index out of range");
  ++Runs;
  for (const auto &[Name, Value] : Indicators)
    Samples[ScenarioIndex][Name].push_back(Value);
}

obs::SweepStore SweepAccumulator::finalize() const {
  obs::SweepStore Store;
  Store.Seeds = Seeds;
  Store.Runs = Runs;
  for (size_t S = 0; S < Scenarios.size(); ++S) {
    obs::SweepScenario Sc;
    Sc.Id = Scenarios[S].first;
    Sc.Axes = Scenarios[S].second;
    for (const auto &[Name, Raw] : Samples[S]) {
      // Sort first: every statistic below is a function of the sorted
      // sample vector, so insertion order can never leak into the
      // result.
      std::vector<double> Sorted = Raw;
      std::sort(Sorted.begin(), Sorted.end());
      obs::SweepIndicatorStats St;
      St.N = Sorted.size();
      if (St.N == 0)
        continue;
      double Sum = 0.0;
      for (double X : Sorted)
        Sum += X;
      St.Mean = Sum / static_cast<double>(St.N);
      if (St.N > 1) {
        double Sq = 0.0;
        for (double X : Sorted)
          Sq += (X - St.Mean) * (X - St.Mean);
        St.Stddev = std::sqrt(Sq / static_cast<double>(St.N - 1));
        St.Ci95 = tCritical95(St.N - 1) * St.Stddev /
                  std::sqrt(static_cast<double>(St.N));
      }
      St.P50 = quantile(Sorted, 0.50);
      St.P90 = quantile(Sorted, 0.90);
      St.P99 = quantile(Sorted, 0.99);
      St.Min = Sorted.front();
      St.Max = Sorted.back();
      Sc.Indicators.emplace(Name, St);
    }
    Store.Scenarios.push_back(std::move(Sc));
  }
  return Store;
}

//===-- support/Stats.cpp - Streaming statistics --------------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "support/Stats.h"

#include <algorithm>
#include <limits>

using namespace cws;

double cws::tCritical95(size_t Df) {
  // Standard two-sided 95% quantiles of Student's t distribution.
  static const double Table[] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
      2.228,  2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
      2.093,  2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
      2.048,  2.045, 2.042};
  if (Df == 0)
    return std::numeric_limits<double>::quiet_NaN();
  if (Df <= 30)
    return Table[Df - 1];
  return 1.96;
}

double cws::quantile(std::vector<double> Samples, double Q) {
  // An empty sample set has no quantiles: NaN propagates into report
  // renderers (which show "n/a") and SLO comparisons (which fail
  // closed), instead of a reassuring 0 that reads as a perfect score.
  if (Samples.empty())
    return std::numeric_limits<double>::quiet_NaN();
  Q = std::clamp(Q, 0.0, 1.0);
  std::sort(Samples.begin(), Samples.end());
  double Pos = Q * static_cast<double>(Samples.size() - 1);
  auto Idx = static_cast<size_t>(Pos);
  double Frac = Pos - static_cast<double>(Idx);
  if (Idx + 1 >= Samples.size())
    return Samples.back();
  return Samples[Idx] * (1.0 - Frac) + Samples[Idx + 1] * Frac;
}

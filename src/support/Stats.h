//===-- support/Stats.h - Streaming statistics ------------------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Statistics used by the QoS factor collectors: percentile extraction
/// and Student-t critical values.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_SUPPORT_STATS_H
#define CWS_SUPPORT_STATS_H

#include <cstddef>
#include <vector>

namespace cws {

/// Returns the \p Q quantile (0..1) of \p Samples. Sorts a copy; intended
/// for end-of-experiment reporting, not hot paths. Returns NaN when
/// empty (no samples have no quantiles; reports render "n/a" and SLO
/// rules fail closed, the same convention as `deadline_miss_rate`).
double quantile(std::vector<double> Samples, double Q);

/// Two-sided 95% Student-t critical value for \p Df degrees of freedom:
/// an exact table for 1..30, the normal 1.96 beyond. Used for the
/// confidence intervals of sweep-pooled QoS indicators. Returns NaN for
/// Df == 0 (one sample bounds nothing).
double tCritical95(size_t Df);

} // namespace cws

#endif // CWS_SUPPORT_STATS_H

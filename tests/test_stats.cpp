//===-- tests/test_stats.cpp - Statistics unit tests ----------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "support/Stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

using namespace cws;

TEST(Quantile, EmptyAndSingle) {
  // No samples -> no quantiles: NaN (reports render "n/a", SLO rules
  // fail closed), never a silent 0.
  EXPECT_TRUE(std::isnan(quantile({}, 0.5)));
  EXPECT_TRUE(std::isnan(quantile({}, 0.0)));
  EXPECT_EQ(quantile({7.0}, 0.0), 7.0);
  EXPECT_EQ(quantile({7.0}, 1.0), 7.0);
}

TEST(Quantile, MedianAndExtremes) {
  std::vector<double> V{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(V, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(V, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(V, 1.0), 5.0);
}

TEST(Quantile, Interpolates) {
  std::vector<double> V{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(V, 0.25), 2.5);
}


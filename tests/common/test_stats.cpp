#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace repro::common {
namespace {

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MergeEqualsCombined) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    double v = std::sin(i * 0.7) * 10 + i;
    if (i % 2 == 0) a.add(v); else b.add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(ErrorMetrics, KnownValues) {
  std::vector<double> actual = {1.0, 2.0, 4.0};
  std::vector<double> pred = {1.5, 1.5, 5.0};
  ErrorMetrics m = compute_errors(actual, pred);
  EXPECT_NEAR(m.mae, (0.5 + 0.5 + 1.0) / 3.0, 1e-12);
  EXPECT_NEAR(m.rmse, std::sqrt((0.25 + 0.25 + 1.0) / 3.0), 1e-12);
  EXPECT_NEAR(m.mape, 100.0 * (0.5 + 0.25 + 0.25) / 3.0, 1e-9);
  EXPECT_EQ(m.n, 3u);
}

TEST(ErrorMetrics, SkipsNearZeroActualsInMape) {
  std::vector<double> actual = {0.0, 2.0};
  std::vector<double> pred = {1.0, 1.0};
  ErrorMetrics m = compute_errors(actual, pred);
  EXPECT_NEAR(m.mape, 50.0, 1e-9);  // only the second point counted
}

TEST(ErrorMetrics, SizeMismatchThrows) {
  EXPECT_THROW(compute_errors({1.0}, {1.0, 2.0}), std::invalid_argument);
}

}  // namespace
}  // namespace repro::common

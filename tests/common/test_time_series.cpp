#include "common/time_series.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace repro::common {
namespace {

TEST(Difference, FirstDifference) {
  std::vector<double> y = {1.0, 3.0, 6.0, 10.0};
  auto d = difference(y, 1);
  EXPECT_EQ(d, (std::vector<double>{2.0, 3.0, 4.0}));
}

TEST(Difference, SecondDifference) {
  std::vector<double> y = {1.0, 3.0, 6.0, 10.0};
  auto d = difference(y, 2);
  EXPECT_EQ(d, (std::vector<double>{1.0, 1.0}));
}

TEST(Difference, ZeroIsIdentity) {
  std::vector<double> y = {1.0, 2.0};
  EXPECT_EQ(difference(y, 0), y);
}

TEST(Undifference, InvertsDifference) {
  std::vector<double> y = {5.0, 7.0, 4.0, 9.0, 12.0};
  auto d = difference(y, 1);
  auto restored = undifference_once(d, y[0]);
  ASSERT_EQ(restored.size(), y.size() - 1);
  for (std::size_t i = 0; i < restored.size(); ++i) EXPECT_NEAR(restored[i], y[i + 1], 1e-12);
}

TEST(MeanVariance, Basics) {
  std::vector<double> y = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(mean_of(y), 2.0);
  EXPECT_DOUBLE_EQ(variance_of(y), 1.0);
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
  EXPECT_DOUBLE_EQ(variance_of({5.0}), 0.0);
}

}  // namespace
}  // namespace repro::common

#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace dash::util {
namespace {

TEST(Summary, EmptyInput) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.stddev, 0.0);
}

TEST(Summary, SingleElement) {
  const Summary s = summarize({4.5});
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 4.5);
  EXPECT_DOUBLE_EQ(s.min, 4.5);
  EXPECT_DOUBLE_EQ(s.max, 4.5);
  EXPECT_DOUBLE_EQ(s.median, 4.5);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Summary, HandComputed) {
  // xs = {2, 4, 4, 4, 5, 5, 7, 9}: mean 5, population sd 2,
  // sample sd = sqrt(32/7).
  const Summary s = summarize({2, 4, 4, 4, 5, 5, 7, 9});
  EXPECT_EQ(s.count, 8u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.stddev, std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_DOUBLE_EQ(s.median, 4.5);
}

TEST(Quantile, Extremes) {
  const std::vector<double> xs{3, 1, 2};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.0);
}

TEST(Quantile, LinearInterpolation) {
  // numpy.quantile([0, 10], 0.25) == 2.5 (type-7).
  EXPECT_DOUBLE_EQ(quantile({0, 10}, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile({0, 10, 20, 30}, 1.0 / 3.0), 10.0);
}

}  // namespace
}  // namespace dash::util

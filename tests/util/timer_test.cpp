#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "util/timer.h"

namespace dash::util {
namespace {

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double s = t.seconds();
  EXPECT_GE(s, 0.015);
  EXPECT_LT(s, 5.0);  // sanity upper bound for CI jitter
  EXPECT_NEAR(t.millis(), t.seconds() * 1000.0, 50.0);
}

TEST(Timer, ResetRestarts) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  t.reset();
  EXPECT_LT(t.seconds(), 0.010);
}

}  // namespace
}  // namespace dash::util

// stats.h -- summary statistics for experiment series.
//
// Everything the figure-reproduction harness reports flows through
// Summary, whose mean and standard deviation are accumulated with
// Welford's numerically stable update.
#pragma once

#include <cstddef>
#include <vector>

namespace dash::util {

/// Batch summary of a sample: order statistics plus moments.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  ///< sample standard deviation (n-1 denominator)
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
  double q25 = 0.0;
  double q75 = 0.0;
};

/// Compute the batch summary of `xs`. Empty input yields a zero Summary.
Summary summarize(const std::vector<double>& xs);

/// Linear-interpolation quantile (type-7, the numpy default). q in [0,1].
double quantile(std::vector<double> xs, double q);

}  // namespace dash::util

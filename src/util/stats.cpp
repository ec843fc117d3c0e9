#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace dash::util {

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  DASH_CHECK(q >= 0.0 && q <= 1.0);
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

Summary summarize(const std::vector<double>& xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;

  // Welford's update, in this order: the summaries in every BENCH
  // document are these exact doubles.
  s.min = s.max = xs.front();
  double m2 = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double x = xs[i];
    s.min = std::min(s.min, x);
    s.max = std::max(s.max, x);
    const double delta = x - s.mean;
    s.mean += delta / static_cast<double>(i + 1);
    m2 += delta * (x - s.mean);
  }
  if (xs.size() >= 2) {
    s.stddev = std::sqrt(m2 / static_cast<double>(xs.size() - 1));
  }
  s.median = quantile(xs, 0.5);
  s.q25 = quantile(xs, 0.25);
  s.q75 = quantile(xs, 0.75);
  return s;
}

}  // namespace dash::util

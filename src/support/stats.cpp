#include "sccpipe/support/stats.hpp"

#include <algorithm>
#include <cmath>

#include "sccpipe/support/check.hpp"

namespace sccpipe {

void OnlineStats::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  if (n_ == 1) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
}

double OnlineStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  SCCPIPE_CHECK(!sorted.empty());
  SCCPIPE_CHECK_MSG(q >= 0.0 && q <= 1.0, "q=" << q);
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

QuantileSummary summarize(std::vector<double> samples) {
  QuantileSummary s;
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.count = samples.size();
  s.min = samples.front();
  s.max = samples.back();
  s.q1 = quantile_sorted(samples, 0.25);
  s.median = quantile_sorted(samples, 0.50);
  s.q3 = quantile_sorted(samples, 0.75);
  return s;
}

}  // namespace sccpipe

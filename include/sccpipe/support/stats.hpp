#pragma once

/// \file stats.hpp
/// Small statistics helpers used by the metrics collectors: online
/// mean/variance (Welford) and exact order statistics (median, quartiles)
/// over retained samples — Figure 15 of the paper reports medians and
/// quartiles of per-stage idle times.

#include <cstddef>
#include <vector>

#include "sccpipe/support/time.hpp"

namespace sccpipe {

/// Single-pass mean / variance / min / max accumulator (Welford's method).
class OnlineStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Five-number-style summary of a retained sample set.
struct QuantileSummary {
  double min = 0.0;
  double q1 = 0.0;      ///< first quartile
  double median = 0.0;
  double q3 = 0.0;      ///< third quartile
  double max = 0.0;
  std::size_t count = 0;
};

/// Linear-interpolated quantile of \p sorted (must be ascending, non-empty),
/// q in [0,1]. Matches the common "R-7" definition.
double quantile_sorted(const std::vector<double>& sorted, double q);

/// Sorts a copy of \p samples and summarises it. Empty input -> all zeros.
QuantileSummary summarize(std::vector<double> samples);

/// Sample collector that retains values for quantile queries.
class SampleSet {
 public:
  void add(double x) { samples_.push_back(x); }
  void add(SimTime t) { samples_.push_back(t.to_ms()); }

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  const std::vector<double>& samples() const { return samples_; }

  QuantileSummary summary() const { return summarize(samples_); }

 private:
  std::vector<double> samples_;
};

}  // namespace sccpipe

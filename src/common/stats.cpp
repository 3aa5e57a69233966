#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace repro::common {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  std::size_t n = n_ + other.n_;
  double delta = other.mean_ - mean_;
  double mean = mean_ + delta * static_cast<double>(other.n_) / static_cast<double>(n);
  m2_ += other.m2_ + delta * delta * static_cast<double>(n_) * static_cast<double>(other.n_) /
                         static_cast<double>(n);
  mean_ = mean;
  n_ = n;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStats::reset() { *this = RunningStats{}; }

double RunningStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

ErrorMetrics compute_errors(const std::vector<double>& actual, const std::vector<double>& predicted,
                            double mape_eps) {
  if (actual.size() != predicted.size()) {
    throw std::invalid_argument("compute_errors: size mismatch");
  }
  ErrorMetrics m;
  double abs_sum = 0.0, sq_sum = 0.0, pct_sum = 0.0;
  std::size_t pct_n = 0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    double e = predicted[i] - actual[i];
    abs_sum += std::abs(e);
    sq_sum += e * e;
    if (std::abs(actual[i]) > mape_eps) {
      pct_sum += std::abs(e / actual[i]);
      ++pct_n;
    }
  }
  m.n = actual.size();
  if (m.n > 0) {
    m.mae = abs_sum / static_cast<double>(m.n);
    m.rmse = std::sqrt(sq_sum / static_cast<double>(m.n));
  }
  if (pct_n > 0) m.mape = 100.0 * pct_sum / static_cast<double>(pct_n);
  return m;
}

}  // namespace repro::common

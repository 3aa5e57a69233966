#pragma once
// Streaming statistics used throughout metrics collection and evaluation.
#include <cstddef>
#include <vector>

namespace repro::common {

/// Welford online mean/variance plus min/max.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);
  void reset();

  std::size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  double variance() const;  ///< sample variance (n-1 denominator)
  double stddev() const;
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Error metrics used by the prediction-accuracy experiments (T1/T2).
struct ErrorMetrics {
  double mae = 0.0;
  double rmse = 0.0;
  double mape = 0.0;  ///< percent; samples with |actual| < eps are skipped
  std::size_t n = 0;
};

ErrorMetrics compute_errors(const std::vector<double>& actual, const std::vector<double>& predicted,
                            double mape_eps = 1e-9);

}  // namespace repro::common

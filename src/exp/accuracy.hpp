#pragma once
// Prediction-accuracy evaluation (experiments T1/T2, F1, F2): train every
// model on the head of a trace, then stream the trace into it window by
// window (teacher forcing) and score its one-step-ahead (or h-step)
// forecasts over the tail — the observe/predict_workers path the
// controllers run.
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "control/predictor.hpp"
#include "dsps/metrics.hpp"

namespace repro::exp {

struct AccuracyOptions {
  std::vector<std::string> models = {"drnn", "svr", "arima", "observed", "ma"};
  double train_fraction = 0.7;  ///< in (0, 1); the head the models fit on
  std::size_t horizon = 1;      ///< windows ahead, >= 1
  std::size_t seq_len = 16;     ///< DRNN/SVR input length, >= 1
  std::uint64_t seed = 7;
  /// Workers to evaluate; empty = every worker in the trace.
  std::vector<std::size_t> workers;
  /// Factory override (ablations); null = make_predictor by name, with
  /// seq_len and horizon.
  std::function<std::unique_ptr<control::PerformancePredictor>(const std::string&)> factory;
};

struct ModelAccuracy {
  std::string model;
  common::ErrorMetrics errors;  ///< pooled over workers and test windows
  double fit_seconds = 0.0;     ///< wall-clock training time
};

struct AccuracyResult {
  std::vector<ModelAccuracy> models;
  /// Per-window test series for one representative worker (F1 data).
  std::size_t series_worker = 0;
  std::vector<double> series_time;
  std::vector<double> series_actual;
  std::map<std::string, std::vector<double>> series_predicted;
};

/// Throws std::invalid_argument on an out-of-range option, a trace shorter
/// than 4 x seq_len, or a split that leaves no test window.
AccuracyResult evaluate_accuracy(const std::vector<dsps::WindowSample>& trace,
                                 const AccuracyOptions& options);

}  // namespace repro::exp

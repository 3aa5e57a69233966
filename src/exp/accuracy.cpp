#include "exp/accuracy.hpp"

#include "exp/scenarios.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "common/time_series.hpp"
#include "control/features.hpp"

namespace repro::exp {

AccuracyResult evaluate_accuracy(const std::vector<dsps::WindowSample>& trace,
                                 const AccuracyOptions& opt) {
  if (!(opt.train_fraction > 0.0 && opt.train_fraction < 1.0)) {
    throw std::invalid_argument("evaluate_accuracy: train_fraction must be in (0, 1)");
  }
  if (opt.horizon == 0) throw std::invalid_argument("evaluate_accuracy: horizon must be >= 1");
  if (opt.seq_len == 0) throw std::invalid_argument("evaluate_accuracy: seq_len must be >= 1");
  if (trace.size() < 4 * opt.seq_len) {
    throw std::invalid_argument("evaluate_accuracy: trace too short");
  }
  std::vector<std::size_t> workers = opt.workers;
  if (workers.empty()) workers = active_workers(trace);
  if (workers.empty()) throw std::invalid_argument("evaluate_accuracy: no active workers");

  const std::size_t cut = static_cast<std::size_t>(static_cast<double>(trace.size()) *
                                                   opt.train_fraction);
  if (cut + opt.horizon > trace.size()) {
    throw std::invalid_argument(
        "evaluate_accuracy: train_fraction and horizon leave no test window");
  }
  const std::vector<dsps::WindowSample> train(trace.begin(),
                                              trace.begin() + static_cast<std::ptrdiff_t>(cut));

  // Representative worker for the F1 series: the one with the most dynamic
  // processing-time profile over the test span.
  std::size_t series_worker = workers.front();
  double best_var = -1.0;
  for (std::size_t w : workers) {
    std::vector<double> tail;
    for (std::size_t i = cut; i < trace.size(); ++i) {
      tail.push_back(control::worker_target(trace[i], w));
    }
    double v = common::variance_of(tail);
    if (v > best_var) {
      best_var = v;
      series_worker = w;
    }
  }

  AccuracyResult result;
  result.series_worker = series_worker;

  // The forecast made after observing windows [0, p) targets window
  // p + horizon - 1, for every p from cut on whose target exists.
  for (std::size_t p = cut; p + opt.horizon <= trace.size(); ++p) {
    const dsps::WindowSample& target = trace[p + opt.horizon - 1];
    result.series_time.push_back(target.time);
    result.series_actual.push_back(control::worker_target(target, series_worker));
  }

  control::DatasetConfig dataset;
  dataset.seq_len = opt.seq_len;
  dataset.horizon = opt.horizon;
  std::vector<double> preds;
  for (const std::string& name : opt.models) {
    auto model = opt.factory ? opt.factory(name) : control::make_predictor(name, opt.seed, dataset);
    auto t_start = std::chrono::steady_clock::now();
    model->fit(train, workers);
    double fit_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t_start).count();

    // Teacher forcing: the model streams the head, then each true test
    // window once, just before the forecast that follows it.
    for (const auto& sample : train) model->observe(sample);
    std::vector<double> actual_all, pred_all;
    std::vector<double> series_pred;
    for (std::size_t p = cut; p + opt.horizon <= trace.size(); ++p) {
      if (p > cut) model->observe(trace[p - 1]);
      model->predict_workers(workers, preds);
      const dsps::WindowSample& target = trace[p + opt.horizon - 1];
      for (std::size_t i = 0; i < workers.size(); ++i) {
        pred_all.push_back(preds[i]);
        actual_all.push_back(control::worker_target(target, workers[i]));
        if (workers[i] == series_worker) series_pred.push_back(preds[i]);
      }
    }

    ModelAccuracy acc;
    acc.model = model->name();
    acc.errors = common::compute_errors(actual_all, pred_all);
    acc.fit_seconds = fit_seconds;
    result.models.push_back(std::move(acc));
    result.series_predicted[model->name()] = std::move(series_pred);
  }
  return result;
}

}  // namespace repro::exp

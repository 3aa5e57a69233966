#include "control/baseline_predictors.hpp"

#include <algorithm>
#include <stdexcept>

namespace repro::control {

ArimaPredictor::ArimaPredictor(baselines::ArimaConfig config, std::size_t fit_tail,
                               std::size_t horizon)
    : cfg_(config), fit_tail_(fit_tail), horizon_(std::max<std::size_t>(1, horizon)) {}

std::size_t ArimaPredictor::min_history() const {
  return cfg_.long_ar + std::max(cfg_.p, cfg_.q) + cfg_.q + 2 + static_cast<std::size_t>(cfg_.d);
}

void ArimaPredictor::fit(const std::vector<dsps::WindowSample>& history,
                         const std::vector<std::size_t>& workers) {
  // ARIMA is refit per worker at prediction time; fit() only records a
  // fallback level for degenerate histories.
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& s : history) {
    for (std::size_t w : workers) {
      sum += worker_target(s, w);
      ++n;
    }
  }
  fallback_ = n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double ArimaPredictor::predict_next(std::size_t worker) {
  std::vector<double> series = target_series(recent_samples(), worker);
  if (series.size() > fit_tail_) {
    series.erase(series.begin(), series.end() - static_cast<std::ptrdiff_t>(fit_tail_));
  }
  if (series.size() < min_history()) {
    return series.empty() ? fallback_ : series.back();
  }
  try {
    baselines::Arima model(cfg_);
    model.fit(series);
    double pred = model.forecast(horizon_).back();
    return pred > 0.0 ? pred : 0.0;
  } catch (const std::exception&) {
    return series.back();
  }
}

SvrPredictor::SvrPredictor(baselines::SvrConfig config, DatasetConfig dataset)
    : svr_(config), dataset_(std::move(dataset)), max_train_rows_(1500) {
  if (dataset_.outputs != 1) throw std::invalid_argument("SvrPredictor: dataset.outputs must be 1");
}

void SvrPredictor::fit(const std::vector<dsps::WindowSample>& history,
                       const std::vector<std::size_t>& workers) {
  FlatDataset ds = make_pooled_flat_dataset(history, workers, dataset_);
  if (ds.y.size() < 8) throw std::invalid_argument("SvrPredictor::fit: trace too short");
  if (ds.y.size() > max_train_rows_) {
    // Keep the most recent rows: the kernel solve is O(n^2) memory.
    std::size_t keep = max_train_rows_;
    std::size_t start = ds.y.size() - keep;
    tensor::Matrix x(keep, ds.x.cols());
    std::vector<double> y(keep);
    for (std::size_t r = 0; r < keep; ++r) {
      for (std::size_t c = 0; c < ds.x.cols(); ++c) x(r, c) = ds.x(start + r, c);
      y[r] = ds.y[start + r];
    }
    svr_.fit(x, y);
  } else {
    svr_.fit(ds.x, ds.y);
  }
}

double SvrPredictor::predict_next(std::size_t worker) {
  tensor::Matrix seq = latest_sequence(recent_samples(), worker, dataset_);
  std::vector<double> flat;
  flat.reserve(seq.rows() * seq.cols());
  for (std::size_t t = 0; t < seq.rows(); ++t) {
    for (std::size_t c = 0; c < seq.cols(); ++c) flat.push_back(seq(t, c));
  }
  double pred = svr_.predict(flat);
  return pred > 0.0 ? pred : 0.0;
}

HoltWintersPredictor::HoltWintersPredictor(baselines::HoltWintersConfig config,
                                           std::size_t fit_tail, std::size_t horizon)
    : cfg_(config), fit_tail_(fit_tail), horizon_(std::max<std::size_t>(1, horizon)) {}

std::size_t HoltWintersPredictor::min_history() const {
  return cfg_.period > 0 ? 2 * cfg_.period : 2;
}

void HoltWintersPredictor::fit(const std::vector<dsps::WindowSample>&,
                               const std::vector<std::size_t>&) {}

double HoltWintersPredictor::predict_next(std::size_t worker) {
  std::vector<double> series = target_series(recent_samples(), worker);
  if (series.size() > fit_tail_) {
    series.erase(series.begin(), series.end() - static_cast<std::ptrdiff_t>(fit_tail_));
  }
  if (series.size() < min_history()) return series.empty() ? 0.0 : series.back();
  try {
    baselines::HoltWinters model(cfg_);
    model.fit(series);
    double pred = model.forecast(horizon_).back();
    return pred > 0.0 ? pred : 0.0;
  } catch (const std::exception&) {
    return series.back();
  }
}

double ObservedPredictor::predict_next(std::size_t worker) {
  const std::vector<dsps::WindowSample>& history = recent_samples();
  if (history.empty()) return 0.0;
  return worker_target(history.back(), worker);
}

double MovingAverageWindowPredictor::predict_next(std::size_t worker) {
  const std::vector<dsps::WindowSample>& history = recent_samples();
  if (history.empty()) return 0.0;
  std::size_t n = std::min(window_, history.size());
  double sum = 0.0;
  for (std::size_t i = history.size() - n; i < history.size(); ++i) {
    sum += worker_target(history[i], worker);
  }
  return sum / static_cast<double>(n);
}

}  // namespace repro::control

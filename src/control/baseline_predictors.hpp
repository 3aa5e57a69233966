#pragma once
// The paper's baseline predictors wrapped behind PerformancePredictor:
// ARIMA (univariate per worker) and SVR (flattened multilevel features),
// plus trivial references (last observation, moving average).
#include <algorithm>
#include <unordered_map>

#include "baselines/arima.hpp"
#include "baselines/holt_winters.hpp"
#include "baselines/svr.hpp"
#include "control/dataset.hpp"
#include "control/predictor.hpp"

namespace repro::control {

/// Per-worker univariate ARIMA over the processing-time series. Refits on
/// the recent tail at every prediction (the fit is a cheap least-squares).
class ArimaPredictor final : public PerformancePredictor {
 public:
  explicit ArimaPredictor(baselines::ArimaConfig config = {}, std::size_t fit_tail = 240,
                          std::size_t horizon = 1);

  void fit(const std::vector<dsps::WindowSample>& history,
           const std::vector<std::size_t>& workers) override;
  double predict_next(std::size_t worker) override;
  std::size_t min_history() const override;
  std::string name() const override { return "ARIMA"; }
  /// The rolling window must cover the per-prediction refit tail.
  std::size_t stream_window() const override { return std::max(fit_tail_, min_history()); }

 private:
  baselines::ArimaConfig cfg_;
  std::size_t fit_tail_;
  std::size_t horizon_;
  double fallback_ = 0.0;
};

/// SVR over the same flattened feature window the DRNN sees. Forecasts one
/// window: `dataset.outputs` must be 1.
class SvrPredictor final : public PerformancePredictor {
 public:
  SvrPredictor(baselines::SvrConfig config, DatasetConfig dataset);
  explicit SvrPredictor(DatasetConfig dataset) : SvrPredictor(baselines::SvrConfig{}, dataset) {}

  void fit(const std::vector<dsps::WindowSample>& history,
           const std::vector<std::size_t>& workers) override;
  double predict_next(std::size_t worker) override;
  std::size_t min_history() const override { return dataset_.seq_len; }
  std::string name() const override { return "SVR"; }

  const baselines::Svr& svr() const { return svr_; }

 private:
  baselines::Svr svr_;
  DatasetConfig dataset_;
  std::size_t max_train_rows_;
};

/// Holt-Winters exponential smoothing over each worker's series: refits on
/// the recent tail at prediction time (the fit is a single smoothing pass).
class HoltWintersPredictor final : public PerformancePredictor {
 public:
  explicit HoltWintersPredictor(baselines::HoltWintersConfig config = {},
                                std::size_t fit_tail = 240, std::size_t horizon = 1);

  void fit(const std::vector<dsps::WindowSample>& history,
           const std::vector<std::size_t>& workers) override;
  double predict_next(std::size_t worker) override;
  std::size_t min_history() const override;
  std::string name() const override { return "HoltWinters"; }
  std::size_t stream_window() const override { return std::max(fit_tail_, min_history()); }

 private:
  baselines::HoltWintersConfig cfg_;
  std::size_t fit_tail_;
  std::size_t horizon_;
};

/// Memoryless reference: next value = last observed value.
class ObservedPredictor final : public PerformancePredictor {
 public:
  void fit(const std::vector<dsps::WindowSample>&, const std::vector<std::size_t>&) override {}
  double predict_next(std::size_t worker) override;
  std::size_t min_history() const override { return 1; }
  std::string name() const override { return "Observed"; }
};

/// Moving average of the last `window` observations.
class MovingAverageWindowPredictor final : public PerformancePredictor {
 public:
  explicit MovingAverageWindowPredictor(std::size_t window = 8) : window_(window) {}
  void fit(const std::vector<dsps::WindowSample>&, const std::vector<std::size_t>&) override {}
  double predict_next(std::size_t worker) override;
  std::size_t min_history() const override { return 1; }
  std::string name() const override { return "MovingAvg"; }

 private:
  std::size_t window_;
};

}  // namespace repro::control

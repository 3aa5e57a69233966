#include "control/predictor.hpp"

#include <algorithm>
#include <stdexcept>

#include "control/baseline_predictors.hpp"
#include "control/drnn_predictor.hpp"

namespace repro::control {

void PerformancePredictor::observe(const dsps::WindowSample& sample) {
  if (!recent_.bounded()) recent_.set_capacity(std::max<std::size_t>(stream_window(), 1));
  recent_.push(sample);
}

void PerformancePredictor::predict_workers(const std::vector<std::size_t>& workers,
                                           std::vector<double>& out) {
  out.resize(workers.size());
  for (std::size_t i = 0; i < workers.size(); ++i) out[i] = predict_next(workers[i]);
}

std::size_t PerformancePredictor::stream_window() const {
  return std::max<std::size_t>(min_history(), 256);
}

void PerformancePredictor::reset_stream() { recent_ = runtime::WindowHistory(); }

std::unique_ptr<PerformancePredictor> make_predictor(const std::string& name, std::uint64_t seed,
                                                     DatasetConfig dataset) {
  if (name == "drnn" || name == "drnn-lstm" || name == "drnn-gru") {
    DrnnPredictorConfig cfg;
    cfg.dataset = dataset;
    if (name == "drnn-gru") cfg.cell = nn::CellKind::kGru;
    cfg.seed = seed;
    cfg.train.seed = seed + 1;
    return std::make_unique<DrnnPredictor>(cfg);
  }
  if (name == "arima") {
    return std::make_unique<ArimaPredictor>(baselines::ArimaConfig{}, 240, dataset.horizon);
  }
  if (name == "svr") {
    baselines::SvrConfig svr;
    svr.seed = seed;
    return std::make_unique<SvrPredictor>(svr, dataset);
  }
  if (name == "hw") {
    return std::make_unique<HoltWintersPredictor>(baselines::HoltWintersConfig{}, 240,
                                                  dataset.horizon);
  }
  if (name == "observed") return std::make_unique<ObservedPredictor>();
  if (name == "ma") return std::make_unique<MovingAverageWindowPredictor>();
  throw std::invalid_argument("make_predictor: unknown predictor " + name);
}

const std::vector<std::string>& predictor_names() {
  static const std::vector<std::string> names = {"drnn", "drnn-lstm", "drnn-gru", "arima",
                                                 "svr",  "hw",        "observed", "ma"};
  return names;
}

}  // namespace repro::control

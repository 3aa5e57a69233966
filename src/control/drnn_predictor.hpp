#pragma once
// The paper's predictor: a deep recurrent network over multilevel runtime
// statistics sequences, with internal standardization of features and
// targets. One shared model is trained across workers (pooled data). With
// dataset.outputs = H > 1 its output head forecasts H consecutive windows
// jointly (extension X1), so one model serves every control horizon.
#include <optional>

#include "control/dataset.hpp"
#include "control/predictor.hpp"
#include "nn/scaler.hpp"
#include "nn/serialize.hpp"
#include "nn/trainer.hpp"

namespace repro::control {

struct DrnnPredictorConfig {
  DatasetConfig dataset{};
  std::size_t hidden_size = 32;
  std::size_t num_layers = 2;
  nn::CellKind cell = nn::CellKind::kLstm;
  double dropout = 0.1;
  nn::TrainConfig train{};
  std::uint64_t seed = 7;
};

class DrnnPredictor final : public PerformancePredictor {
 public:
  /// Throws std::invalid_argument when config.dataset.outputs is 0.
  explicit DrnnPredictor(DrnnPredictorConfig config);

  void fit(const std::vector<dsps::WindowSample>& history,
           const std::vector<std::size_t>& workers) override;
  std::size_t min_history() const override { return cfg_.dataset.seq_len; }
  std::string name() const override;

  // Fully incremental streaming path: observe() appends one feature row
  // per worker to bounded rings (no raw-sample retention), and a forecast
  // reads the live sequence from the rings. predict_workers stacks every
  // listed worker's sequence into one [T x W x D] batch and runs one
  // Drnn::forward over it; predict_next is its batch of one, so both give
  // the same bits for a worker.
  void observe(const dsps::WindowSample& sample) override;
  /// The first output: `dataset.horizon` windows ahead.
  double predict_next(std::size_t worker) override;
  void predict_workers(const std::vector<std::size_t>& workers, std::vector<double>& out) override;
  /// Every output into `out` (resized to dataset.outputs): out[j] forecasts
  /// the window horizon + j ahead; out[0] is exactly predict_next(worker).
  void predict_horizons(std::size_t worker, std::vector<double>& out);
  std::size_t stream_window() const override { return cfg_.dataset.seq_len; }
  std::size_t observed_windows() const override { return stream_fx_.windows_seen(); }
  void reset_stream() override { stream_fx_.reset(); }

  bool trained() const { return model_.has_value(); }
  const nn::TrainReport& last_report() const { return report_; }
  const DrnnPredictorConfig& config() const { return cfg_; }
  nn::Drnn& model();

 private:
  /// One inference pass over the streamed sequences of workers[0, n):
  /// writes the first `outputs` forecasts of workers[i] to
  /// out[i * outputs, (i + 1) * outputs).
  void forecast(const std::size_t* workers, std::size_t n, std::size_t outputs, double* out);
  /// Standardize seq_ws_ and store it as row `row` of every batch step.
  void stage_sequence(std::size_t row);

  DrnnPredictorConfig cfg_;
  std::optional<nn::Drnn> model_;
  nn::StandardScaler feature_scaler_;
  nn::StandardScaler target_scaler_;  ///< one column per output
  nn::TrainReport report_;
  tensor::Matrix seq_ws_;  ///< one worker's live sequence, [T x D]
  nn::SeqBatch batch_ws_;  ///< inference batch, T steps of [W x D]
  StreamingFeatureExtractor stream_fx_;
};

}  // namespace repro::control

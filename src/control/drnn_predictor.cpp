#include "control/drnn_predictor.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/logging.hpp"

namespace repro::control {

DrnnPredictor::DrnnPredictor(DrnnPredictorConfig config)
    : cfg_(std::move(config)),
      stream_fx_(cfg_.dataset.features, std::max<std::size_t>(cfg_.dataset.seq_len, 1)) {
  if (cfg_.dataset.outputs == 0) {
    throw std::invalid_argument("DrnnPredictor: dataset.outputs must be > 0");
  }
}

std::string DrnnPredictor::name() const {
  return cfg_.cell == nn::CellKind::kLstm ? "DRNN-LSTM" : "DRNN-GRU";
}

nn::Drnn& DrnnPredictor::model() {
  if (!model_) throw std::logic_error("DrnnPredictor::model before fit");
  return *model_;
}

void DrnnPredictor::fit(const std::vector<dsps::WindowSample>& history,
                        const std::vector<std::size_t>& workers) {
  nn::SequenceDataset raw = make_pooled_drnn_dataset(history, workers, cfg_.dataset);
  if (raw.size() < 8) throw std::invalid_argument("DrnnPredictor::fit: trace too short");

  // Fit scalers on all timesteps / targets of the training data, one
  // target column per output.
  const std::size_t d = feature_dim(cfg_.dataset.features);
  const std::size_t outputs = cfg_.dataset.outputs;
  tensor::Matrix all_steps(raw.size() * cfg_.dataset.seq_len, d);
  tensor::Matrix all_targets(raw.size(), outputs);
  std::size_t r = 0;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    for (std::size_t t = 0; t < cfg_.dataset.seq_len; ++t) {
      for (std::size_t c = 0; c < d; ++c) all_steps(r, c) = raw.sequences[i](t, c);
      ++r;
    }
    for (std::size_t j = 0; j < outputs; ++j) all_targets(i, j) = raw.targets[i][j];
  }
  feature_scaler_.fit(all_steps);
  target_scaler_.fit(all_targets);

  nn::SequenceDataset scaled;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    tensor::Matrix seq = raw.sequences[i];
    feature_scaler_.transform_inplace(seq);
    std::vector<double> targets(outputs);
    for (std::size_t j = 0; j < outputs; ++j) {
      targets[j] = target_scaler_.transform_scalar(raw.targets[i][j], j);
    }
    scaled.append(std::move(seq), std::move(targets));
  }

  nn::DrnnConfig mc;
  mc.input_size = d;
  mc.hidden_size = cfg_.hidden_size;
  mc.num_layers = cfg_.num_layers;
  mc.cell = cfg_.cell;
  mc.dropout = cfg_.dropout;
  mc.output_size = outputs;
  mc.seed = cfg_.seed;
  model_.emplace(mc);

  nn::Trainer trainer(cfg_.train);
  report_ = trainer.fit(*model_, scaled);
  LOG_INFO("DrnnPredictor trained: ", report_.epochs_run, " epochs, best val loss ",
           report_.best_val_loss);
}

void DrnnPredictor::stage_sequence(std::size_t row) {
  feature_scaler_.transform_inplace(seq_ws_);
  for (std::size_t t = 0; t < seq_ws_.rows(); ++t) {
    const double* src = seq_ws_.row_ptr(t);
    std::copy(src, src + seq_ws_.cols(), batch_ws_[t].row_ptr(row));
  }
}

void DrnnPredictor::observe(const dsps::WindowSample& sample) { stream_fx_.observe(sample); }

double DrnnPredictor::predict_next(std::size_t worker) {
  double value = 0.0;
  forecast(&worker, 1, 1, &value);
  return value;
}

void DrnnPredictor::predict_workers(const std::vector<std::size_t>& workers,
                                    std::vector<double>& out) {
  out.resize(workers.size());
  forecast(workers.data(), workers.size(), 1, out.data());
}

void DrnnPredictor::predict_horizons(std::size_t worker, std::vector<double>& out) {
  out.resize(cfg_.dataset.outputs);
  forecast(&worker, 1, out.size(), out.data());
}

void DrnnPredictor::forecast(const std::size_t* workers, std::size_t n, std::size_t outputs,
                             double* out) {
  if (!model_) throw std::logic_error("DrnnPredictor: forecast before fit");
  if (n == 0) return;
  nn::reshape_seq(batch_ws_, cfg_.dataset.seq_len, n, stream_fx_.dim());
  for (std::size_t i = 0; i < n; ++i) {
    stream_fx_.sequence_into(workers[i], cfg_.dataset.seq_len, seq_ws_);
    stage_sequence(i);
  }
  // Rows never mix in the forward pass, so row i is the bits a batch of
  // one would give for workers[i].
  const tensor::Matrix& scaled = model_->forward(batch_ws_, /*training=*/false);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < outputs; ++j) {
      const double value = target_scaler_.inverse_transform_scalar(scaled(i, j), j);
      out[i * outputs + j] = value > 0.0 ? value : 0.0;
    }
  }
}

}  // namespace repro::control

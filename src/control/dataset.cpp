#include "control/dataset.hpp"

#include <stdexcept>

#include "nn/trainer.hpp"

namespace repro::control {
namespace {

tensor::Matrix sequence_at(const std::vector<dsps::WindowSample>& history, std::size_t start,
                           std::size_t worker, const DatasetConfig& cfg) {
  std::size_t d = feature_dim(cfg.features);
  tensor::Matrix seq(cfg.seq_len, d);
  for (std::size_t t = 0; t < cfg.seq_len; ++t) {
    std::vector<double> f = worker_features(history[start + t], worker, cfg.features);
    seq.set_row(t, f);
  }
  return seq;
}

}  // namespace

nn::SequenceDataset make_drnn_dataset(const std::vector<dsps::WindowSample>& history,
                                      std::size_t worker, const DatasetConfig& cfg) {
  return make_pooled_drnn_dataset(history, {worker}, cfg);
}

nn::SequenceDataset make_pooled_drnn_dataset(const std::vector<dsps::WindowSample>& history,
                                             const std::vector<std::size_t>& workers,
                                             const DatasetConfig& cfg) {
  nn::SequenceDataset ds;
  if (cfg.seq_len == 0 || cfg.horizon == 0 || cfg.outputs == 0) {
    throw std::invalid_argument("DatasetConfig: zero len");
  }
  // Windows one sample spans: its input sequence through its last target.
  const std::size_t span = cfg.seq_len + cfg.horizon + cfg.outputs - 1;
  if (history.size() < span) return ds;
  std::size_t n = history.size() - span + 1;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t first_target = i + cfg.seq_len + cfg.horizon - 1;
    for (std::size_t w : workers) {
      tensor::Matrix seq = sequence_at(history, i, w, cfg);
      std::vector<double> targets(cfg.outputs);
      for (std::size_t j = 0; j < cfg.outputs; ++j) {
        targets[j] = worker_target(history[first_target + j], w);
      }
      ds.append(std::move(seq), std::move(targets));
    }
  }
  return ds;
}

FlatDataset make_flat_dataset(const std::vector<dsps::WindowSample>& history, std::size_t worker,
                              const DatasetConfig& cfg) {
  return make_pooled_flat_dataset(history, {worker}, cfg);
}

FlatDataset make_pooled_flat_dataset(const std::vector<dsps::WindowSample>& history,
                                     const std::vector<std::size_t>& workers,
                                     const DatasetConfig& cfg) {
  FlatDataset ds;
  if (history.size() < cfg.seq_len + cfg.horizon) return ds;
  std::size_t d = feature_dim(cfg.features);
  std::size_t n = history.size() - cfg.seq_len - cfg.horizon + 1;
  ds.x.resize(n * workers.size(), cfg.seq_len * d);
  ds.y.reserve(n * workers.size());
  std::size_t row = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t w : workers) {
      for (std::size_t t = 0; t < cfg.seq_len; ++t) {
        std::vector<double> f = worker_features(history[i + t], w, cfg.features);
        for (std::size_t c = 0; c < d; ++c) ds.x(row, t * d + c) = f[c];
      }
      ds.y.push_back(worker_target(history[i + cfg.seq_len + cfg.horizon - 1], w));
      ++row;
    }
  }
  return ds;
}

tensor::Matrix latest_sequence(const std::vector<dsps::WindowSample>& history, std::size_t worker,
                               const DatasetConfig& cfg) {
  if (history.size() < cfg.seq_len) {
    throw std::invalid_argument("latest_sequence: history shorter than seq_len");
  }
  return sequence_at(history, history.size() - cfg.seq_len, worker, cfg);
}

}  // namespace repro::control

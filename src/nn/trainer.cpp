#include "nn/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "common/rng.hpp"

namespace repro::nn {

void SequenceDataset::append(tensor::Matrix seq, std::vector<double> target) {
  if (!sequences.empty() &&
      (seq.rows() != sequences[0].rows() || seq.cols() != sequences[0].cols())) {
    throw std::invalid_argument("SequenceDataset: inconsistent sequence shape");
  }
  sequences.push_back(std::move(seq));
  targets.push_back(std::move(target));
}

void gather_batch_into(const SequenceDataset& data, const std::vector<std::size_t>& idx,
                       SeqBatch& out) {
  if (idx.empty()) {
    out.clear();
    return;
  }
  std::size_t t_len = data.sequences[idx[0]].rows();
  std::size_t d = data.sequences[idx[0]].cols();
  reshape_seq(out, t_len, idx.size(), d);
  for (std::size_t b = 0; b < idx.size(); ++b) {
    const tensor::Matrix& seq = data.sequences[idx[b]];
    for (std::size_t t = 0; t < t_len; ++t) {
      const double* src = seq.row_ptr(t);
      double* dst = out[t].row_ptr(b);
      for (std::size_t c = 0; c < d; ++c) dst[c] = src[c];
    }
  }
}

void gather_targets_into(const SequenceDataset& data, const std::vector<std::size_t>& idx,
                         tensor::Matrix& out) {
  if (idx.empty()) {
    out.reshape(0, 0);
    return;
  }
  std::size_t out_dim = data.targets[idx[0]].size();
  out.reshape(idx.size(), out_dim);
  for (std::size_t b = 0; b < idx.size(); ++b) {
    double* dst = out.row_ptr(b);
    for (std::size_t c = 0; c < out_dim; ++c) dst[c] = data.targets[idx[b]][c];
  }
}

double Trainer::evaluate_range(Drnn& model, const SequenceDataset& data, std::size_t lo,
                               std::size_t hi) const {
  if (hi <= lo) return 0.0;
  double total = 0.0;
  std::size_t count = 0;
  for (std::size_t start = lo; start < hi; start += config_.batch_size) {
    idx_ws_.clear();
    for (std::size_t i = start; i < std::min(hi, start + config_.batch_size); ++i) {
      idx_ws_.push_back(i);
    }
    gather_batch_into(data, idx_ws_, batch_ws_);
    gather_targets_into(data, idx_ws_, y_ws_);
    const tensor::Matrix& pred = model.forward(batch_ws_, /*training=*/false);
    mse_loss_into(pred, y_ws_, loss_ws_);
    total += loss_ws_.value * static_cast<double>(idx_ws_.size());
    count += idx_ws_.size();
  }
  return total / static_cast<double>(count);
}

double Trainer::evaluate(Drnn& model, const SequenceDataset& data) const {
  return evaluate_range(model, data, 0, data.size());
}

double Trainer::train_step(Drnn& model, const SequenceDataset& data,
                           const std::vector<std::size_t>& idx) {
  if (idx.empty()) throw std::invalid_argument("Trainer::train_step: empty minibatch");
  if (!optimizer_) optimizer_ = std::make_unique<Adam>(config_.learning_rate);
  gather_batch_into(data, idx, batch_ws_);
  gather_targets_into(data, idx, y_ws_);
  model.zero_grads();
  const tensor::Matrix& pred = model.forward(batch_ws_, /*training=*/true);
  mse_loss_into(pred, y_ws_, loss_ws_);
  model.backward(loss_ws_.grad);
  const auto& params = model.param_refs();
  clip_grad_norm(params, config_.grad_clip);
  optimizer_->step(params);
  return loss_ws_.value;
}

void Trainer::snapshot_into(Drnn& model, std::vector<tensor::Matrix>& snap) const {
  const auto& params = model.param_refs();
  if (snap.size() != params.size()) snap.resize(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) snap[i].copy_from(*params[i].value);
}

void Trainer::restore_from(Drnn& model, const std::vector<tensor::Matrix>& snap) const {
  const auto& params = model.param_refs();
  if (params.size() != snap.size()) throw std::logic_error("restore: param count changed");
  for (std::size_t i = 0; i < snap.size(); ++i) params[i].value->copy_from(snap[i]);
}

TrainReport Trainer::fit(Drnn& model, const SequenceDataset& data) {
  if (data.size() == 0) throw std::invalid_argument("Trainer::fit: empty dataset");
  TrainReport report;

  // Train/validation are index ranges over the caller's dataset — the rows
  // are never copied.
  std::size_t cut = data.size();
  if (config_.validation_fraction > 0.0 && data.size() >= 10) {
    cut = static_cast<std::size_t>(static_cast<double>(data.size()) *
                                   (1.0 - config_.validation_fraction));
  }
  const std::size_t val_size = data.size() - cut;

  optimizer_ = std::make_unique<Adam>(config_.learning_rate);
  common::Pcg32 rng(config_.seed, 0x7a);
  std::vector<std::size_t> order(cut);
  std::iota(order.begin(), order.end(), 0);

  double best_val = std::numeric_limits<double>::infinity();
  std::size_t bad_epochs = 0;
  std::vector<tensor::Matrix> best_weights;

  std::vector<std::size_t> idx;
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    // Fisher-Yates with our deterministic rng.
    for (std::size_t i = order.size(); i-- > 1;) {
      std::size_t j = rng.bounded(static_cast<std::uint32_t>(i + 1));
      std::swap(order[i], order[j]);
    }

    double epoch_loss = 0.0;
    std::size_t seen = 0;
    for (std::size_t start = 0; start < order.size(); start += config_.batch_size) {
      idx.assign(order.begin() + static_cast<std::ptrdiff_t>(start),
                 order.begin() +
                     static_cast<std::ptrdiff_t>(std::min(order.size(), start + config_.batch_size)));
      double loss = train_step(model, data, idx);
      epoch_loss += loss * static_cast<double>(idx.size());
      seen += idx.size();
    }
    epoch_loss /= static_cast<double>(seen);
    report.train_losses.push_back(epoch_loss);
    report.epochs_run = epoch + 1;

    if (val_size > 0) {
      double val_loss = evaluate_range(model, data, cut, data.size());
      report.val_losses.push_back(val_loss);
      if (val_loss < best_val - 1e-12) {
        best_val = val_loss;
        report.best_epoch = epoch;
        bad_epochs = 0;
        snapshot_into(model, best_weights);
      } else if (++bad_epochs >= config_.patience) {
        break;
      }
    }
  }

  if (!best_weights.empty()) restore_from(model, best_weights);
  report.best_val_loss = std::isfinite(best_val) ? best_val : 0.0;
  return report;
}

}  // namespace repro::nn

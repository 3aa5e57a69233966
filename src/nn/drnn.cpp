#include "nn/drnn.hpp"

#include <algorithm>
#include <stdexcept>

namespace repro::nn {

const char* cell_name(CellKind kind) {
  switch (kind) {
    case CellKind::kLstm: return "lstm";
    case CellKind::kGru: return "gru";
  }
  return "?";
}

CellKind cell_from_name(const std::string& name) {
  if (name == "lstm") return CellKind::kLstm;
  if (name == "gru") return CellKind::kGru;
  throw std::invalid_argument("cell_from_name: " + name);
}

Drnn::Drnn(const DrnnConfig& config) : config_(config) {
  if (config.num_layers == 0) throw std::invalid_argument("Drnn: need at least one layer");
  common::Pcg32 rng(config.seed, 0x11);
  std::size_t in = config.input_size;
  for (std::size_t l = 0; l < config.num_layers; ++l) {
    if (config.cell == CellKind::kLstm) {
      stack_.push_back(std::make_unique<Lstm>(in, config.hidden_size, rng));
    } else {
      stack_.push_back(std::make_unique<Gru>(in, config.hidden_size, rng));
    }
    in = config.hidden_size;
    if (config.dropout > 0.0 && l + 1 < config.num_layers) {
      stack_.push_back(std::make_unique<Dropout>(in, config.dropout, config.seed + 101 * (l + 1)));
    }
  }
  head_ = std::make_unique<Dense>(in, config.output_size, config.output_activation, rng);

  for (auto& layer : stack_) {
    const auto& ps = layer->param_refs();
    param_refs_.insert(param_refs_.end(), ps.begin(), ps.end());
  }
  const auto& hs = head_->param_refs();
  param_refs_.insert(param_refs_.end(), hs.begin(), hs.end());
}

const tensor::Matrix& Drnn::forward(const SeqBatch& inputs, bool training) {
  if (inputs.empty()) throw std::invalid_argument("Drnn::forward: empty sequence");
  last_seq_len_ = inputs.size();
  last_batch_ = inputs[0].rows();
  const SeqBatch* cur = &inputs;
  SeqBatch* nxt = &seq_a_;
  for (auto& layer : stack_) {
    layer->forward_into(*cur, *nxt, training);
    cur = nxt;
    nxt = (cur == &seq_a_) ? &seq_b_ : &seq_a_;
  }
  head_->forward_matrix_into(cur->back(), head_out_, training);
  return head_out_;
}

void Drnn::backward(const tensor::Matrix& d_output) {
  head_->backward_matrix_into(d_output, dhead_ws_);
  // Only the final timestep feeds the head; earlier steps get zero grads
  // from above (their influence flows through the recurrent state).
  SeqBatch* cur = &grads_a_;
  SeqBatch* nxt = &grads_b_;
  reshape_seq(*cur, last_seq_len_, last_batch_, stack_.back()->output_size());
  for (std::size_t t = 0; t + 1 < last_seq_len_; ++t) (*cur)[t].fill(0.0);
  cur->back().copy_from(dhead_ws_);
  for (std::size_t i = stack_.size(); i-- > 0;) {
    stack_[i]->backward_into(*cur, i == 0 ? nullptr : nxt);
    std::swap(cur, nxt);
  }
}

std::vector<double> Drnn::predict(const tensor::Matrix& sequence) {
  if (sequence.cols() != config_.input_size) {
    throw std::invalid_argument("Drnn::predict: feature width mismatch");
  }
  if (sequence.rows() == 0) throw std::invalid_argument("Drnn::predict: empty sequence");
  reshape_seq(predict_ws_, sequence.rows(), 1, sequence.cols());
  for (std::size_t t = 0; t < sequence.rows(); ++t) {
    const double* src = sequence.row_ptr(t);
    std::copy(src, src + sequence.cols(), predict_ws_[t].data());
  }
  return forward(predict_ws_, /*training=*/false).row(0);
}

void Drnn::zero_grads() {
  for (auto& p : param_refs_) p.grad->fill(0.0);
}

std::size_t Drnn::parameter_count() {
  std::size_t n = 0;
  for (auto& p : param_refs_) n += p.value->size();
  return n;
}

}  // namespace repro::nn

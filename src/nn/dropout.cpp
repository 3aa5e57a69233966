#include "nn/dropout.hpp"

#include <stdexcept>

namespace repro::nn {

Dropout::Dropout(std::size_t width, double rate, std::uint64_t seed)
    : width_(width), rate_(rate), rng_(seed, 0xd0u) {
  if (rate < 0.0 || rate >= 1.0) throw std::invalid_argument("Dropout: rate must be in [0,1)");
}

void Dropout::forward_into(const SeqBatch& inputs, SeqBatch& out, bool training) {
  if (out.size() != inputs.size()) out.resize(inputs.size());
  if (!training || rate_ == 0.0) {
    masks_live_ = 0;
    for (std::size_t t = 0; t < inputs.size(); ++t) out[t].copy_from(inputs[t]);
    return;
  }
  double keep = 1.0 - rate_;
  double scale = 1.0 / keep;
  if (masks_.size() < inputs.size()) masks_.resize(inputs.size());
  masks_live_ = inputs.size();
  for (std::size_t t = 0; t < inputs.size(); ++t) {
    const tensor::Matrix& x = inputs[t];
    tensor::Matrix& mask = masks_[t];
    mask.reshape(x.rows(), x.cols());
    out[t].reshape(x.rows(), x.cols());
    double* mp = mask.data();
    double* yp = out[t].data();
    const double* xp = x.data();
    // Flat row-major draw order: pins the rng stream across refactors.
    for (std::size_t i = 0; i < mask.size(); ++i) {
      mp[i] = rng_.bernoulli(keep) ? scale : 0.0;
      yp[i] = xp[i] * mp[i];
    }
  }
}

void Dropout::backward_into(const SeqBatch& output_grads, SeqBatch* input_grads_out) {
  if (input_grads_out == nullptr) {  // no parameters: nothing to accumulate
    masks_live_ = 0;
    return;
  }
  SeqBatch& input_grads = *input_grads_out;
  if (input_grads.size() != output_grads.size()) input_grads.resize(output_grads.size());
  if (masks_live_ == 0) {
    for (std::size_t t = 0; t < output_grads.size(); ++t) {
      input_grads[t].copy_from(output_grads[t]);
    }
    return;
  }
  if (masks_live_ != output_grads.size()) throw std::logic_error("Dropout: cache mismatch");
  for (std::size_t t = 0; t < output_grads.size(); ++t) {
    const tensor::Matrix& g = output_grads[t];
    input_grads[t].reshape(g.rows(), g.cols());
    const double* gp = g.data();
    const double* mp = masks_[t].data();
    double* dp = input_grads[t].data();
    for (std::size_t i = 0; i < g.size(); ++i) dp[i] = gp[i] * mp[i];
  }
  masks_live_ = 0;
}

}  // namespace repro::nn

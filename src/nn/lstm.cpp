#include "nn/lstm.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "nn/activations.hpp"
#include "tensor/ops.hpp"

namespace repro::nn {
namespace {

// Fused gate activation: sigmoid over the contiguous [i|f] blocks, tanh over
// [g], sigmoid over [o] — three unit-stride passes per row, no branches.
inline void activate_gates(double* zr, std::size_t h) {
  for (std::size_t j = 0; j < 2 * h; ++j) zr[j] = sigmoid(zr[j]);
  for (std::size_t j = 2 * h; j < 3 * h; ++j) zr[j] = std::tanh(zr[j]);
  for (std::size_t j = 3 * h; j < 4 * h; ++j) zr[j] = sigmoid(zr[j]);
}

}  // namespace

Lstm::Lstm(std::size_t in, std::size_t hidden, common::Pcg32& rng, double forget_bias)
    : in_(in),
      hidden_(hidden),
      wx_(tensor::Matrix::random_uniform(in, 4 * hidden,
                                         std::sqrt(6.0 / static_cast<double>(in + hidden)), rng)),
      wh_(tensor::Matrix::random_uniform(hidden, 4 * hidden,
                                         std::sqrt(6.0 / static_cast<double>(2 * hidden)), rng)),
      b_(1, 4 * hidden, 0.0),
      dwx_(in, 4 * hidden, 0.0),
      dwh_(hidden, 4 * hidden, 0.0),
      db_(1, 4 * hidden, 0.0) {
  // Positive forget-gate bias: standard trick to preserve long-range memory
  // early in training.
  for (std::size_t j = 0; j < hidden_; ++j) b_(0, hidden_ + j) = forget_bias;
  param_refs_ = {{"lstm.wx", &wx_, &dwx_}, {"lstm.wh", &wh_, &dwh_}, {"lstm.b", &b_, &db_}};
}

void Lstm::forward_into(const SeqBatch& inputs, SeqBatch& out, bool training) {
  const std::size_t t_len = inputs.size();
  if (t_len == 0) {
    out.clear();
    return;
  }
  const std::size_t batch = inputs[0].rows();
  const std::size_t h = hidden_;

  reshape_seq(out, t_len, batch, h);
  if (training) {
    if (cache_x_.size() != t_len) cache_x_.resize(t_len);
    reshape_seq(cache_gates_, t_len, batch, 4 * h);
    reshape_seq(cache_c_, t_len, batch, h);
    reshape_seq(cache_tanh_c_, t_len, batch, h);
    reshape_seq(cache_h_prev_, t_len, batch, h);
  }
  zero_state_.reshape(batch, h);
  zero_state_.fill(0.0);

  const tensor::Matrix* h_prev = &zero_state_;
  const tensor::Matrix* c_prev = &zero_state_;
  for (std::size_t t = 0; t < t_len; ++t) {
    const tensor::Matrix& x = inputs[t];
    if (x.cols() != in_) throw std::invalid_argument("Lstm: input width mismatch");
    tensor::Matrix& z = training ? cache_gates_[t] : z_ws_;
    matmul_into(x, wx_, z);
    tensor::matmul_accumulate(*h_prev, wh_, z);
    tensor::add_row_broadcast(z, b_);

    tensor::Matrix& c = training ? cache_c_[t] : (t % 2 == 0 ? c_a_ : c_b_);
    c.reshape(batch, h);
    tensor::Matrix& h_cur = out[t];
    for (std::size_t r = 0; r < batch; ++r) {
      double* zr = z.row_ptr(r);
      activate_gates(zr, h);
      const double* ir = zr;
      const double* fr = zr + h;
      const double* gr = zr + 2 * h;
      const double* orow = zr + 3 * h;
      const double* cp = c_prev->row_ptr(r);
      double* cr = c.row_ptr(r);
      double* hr = h_cur.row_ptr(r);
      if (training) {
        double* tr = cache_tanh_c_[t].row_ptr(r);
        for (std::size_t j = 0; j < h; ++j) {
          cr[j] = fr[j] * cp[j] + ir[j] * gr[j];
          tr[j] = std::tanh(cr[j]);
          hr[j] = orow[j] * tr[j];
        }
      } else {
        for (std::size_t j = 0; j < h; ++j) {
          cr[j] = fr[j] * cp[j] + ir[j] * gr[j];
          hr[j] = orow[j] * std::tanh(cr[j]);
        }
      }
    }

    if (training) {
      cache_x_[t].copy_from(x);
      cache_h_prev_[t].copy_from(*h_prev);
    }
    h_prev = &out[t];
    c_prev = &c;
  }
}

void Lstm::backward_into(const SeqBatch& output_grads, SeqBatch* input_grads) {
  const std::size_t t_len = cache_x_.size();
  if (output_grads.size() != t_len) throw std::logic_error("Lstm::backward: length mismatch");
  if (t_len == 0) {
    if (input_grads != nullptr) input_grads->clear();
    return;
  }
  const std::size_t batch = cache_x_[0].rows();
  const std::size_t h = hidden_;

  // Cached transposed weights turn the per-timestep transB matmuls into the
  // fast unit-stride kernel; refreshed once per backward pass (weights only
  // change at the optimizer step, between passes).
  if (input_grads != nullptr) {
    tensor::transpose_into(wx_, wxT_ws_);
    reshape_seq(*input_grads, t_len, batch, in_);
  }
  tensor::transpose_into(wh_, whT_ws_);

  dh_next_ws_.reshape(batch, h);
  dh_next_ws_.fill(0.0);
  dc_next_ws_.reshape(batch, h);
  dc_next_ws_.fill(0.0);
  dz_ws_.reshape(batch, 4 * h);
  dc_prev_ws_.reshape(batch, h);

  for (std::size_t t = t_len; t-- > 0;) {
    const tensor::Matrix& gates = cache_gates_[t];
    const tensor::Matrix& tanh_c = cache_tanh_c_[t];
    // c_{t-1} is the cached cell state of the previous step (zeros at t=0).
    const tensor::Matrix* c_prev = t > 0 ? &cache_c_[t - 1] : nullptr;

    for (std::size_t r = 0; r < batch; ++r) {
      const double* dho = output_grads[t].row_ptr(r);
      const double* dhn = dh_next_ws_.row_ptr(r);
      const double* dcn = dc_next_ws_.row_ptr(r);
      const double* gr_row = gates.row_ptr(r);
      const double* ir = gr_row;
      const double* fr = gr_row + h;
      const double* gr = gr_row + 2 * h;
      const double* orow = gr_row + 3 * h;
      const double* tr = tanh_c.row_ptr(r);
      const double* cprev = c_prev != nullptr ? c_prev->row_ptr(r) : nullptr;
      double* dzr = dz_ws_.row_ptr(r);
      double* dcp = dc_prev_ws_.row_ptr(r);
      for (std::size_t j = 0; j < h; ++j) {
        double dh = dho[j] + dhn[j];
        double d_o = dh * tr[j];
        double dc = dh * orow[j] * (1.0 - tr[j] * tr[j]) + dcn[j];
        double cprev_j = cprev != nullptr ? cprev[j] : 0.0;
        double d_i = dc * gr[j];
        double d_f = dc * cprev_j;
        double d_g = dc * ir[j];
        dzr[j] = d_i * ir[j] * (1.0 - ir[j]);
        dzr[h + j] = d_f * fr[j] * (1.0 - fr[j]);
        dzr[2 * h + j] = d_g * (1.0 - gr[j] * gr[j]);
        dzr[3 * h + j] = d_o * orow[j] * (1.0 - orow[j]);
        dcp[j] = dc * fr[j];
      }
    }

    tensor::matmul_transA_into(cache_x_[t], dz_ws_, dwx_scratch_);
    dwx_ += dwx_scratch_;
    tensor::matmul_transA_into(cache_h_prev_[t], dz_ws_, dwh_scratch_);
    dwh_ += dwh_scratch_;
    tensor::column_sums_into(dz_ws_, db_scratch_);
    db_ += db_scratch_;
    if (input_grads != nullptr) matmul_into(dz_ws_, wxT_ws_, (*input_grads)[t]);
    matmul_into(dz_ws_, whT_ws_, dh_next_ws_);
    std::swap(dc_next_ws_, dc_prev_ws_);
  }
}

}  // namespace repro::nn

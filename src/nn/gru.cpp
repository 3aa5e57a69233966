#include "nn/gru.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "nn/activations.hpp"
#include "tensor/ops.hpp"

namespace repro::nn {

Gru::Gru(std::size_t in, std::size_t hidden, common::Pcg32& rng)
    : in_(in),
      hidden_(hidden),
      wx_zr_(tensor::Matrix::random_uniform(in, 2 * hidden,
                                            std::sqrt(6.0 / static_cast<double>(in + hidden)), rng)),
      wh_zr_(tensor::Matrix::random_uniform(hidden, 2 * hidden,
                                            std::sqrt(6.0 / static_cast<double>(2 * hidden)), rng)),
      b_zr_(1, 2 * hidden, 0.0),
      wx_n_(tensor::Matrix::random_uniform(in, hidden,
                                           std::sqrt(6.0 / static_cast<double>(in + hidden)), rng)),
      wh_n_(tensor::Matrix::random_uniform(hidden, hidden,
                                           std::sqrt(6.0 / static_cast<double>(2 * hidden)), rng)),
      b_n_(1, hidden, 0.0),
      dwx_zr_(in, 2 * hidden, 0.0),
      dwh_zr_(hidden, 2 * hidden, 0.0),
      db_zr_(1, 2 * hidden, 0.0),
      dwx_n_(in, hidden, 0.0),
      dwh_n_(hidden, hidden, 0.0),
      db_n_(1, hidden, 0.0) {
  param_refs_ = {{"gru.wx_zr", &wx_zr_, &dwx_zr_}, {"gru.wh_zr", &wh_zr_, &dwh_zr_},
                 {"gru.b_zr", &b_zr_, &db_zr_},    {"gru.wx_n", &wx_n_, &dwx_n_},
                 {"gru.wh_n", &wh_n_, &dwh_n_},    {"gru.b_n", &b_n_, &db_n_}};
}

void Gru::forward_into(const SeqBatch& inputs, SeqBatch& out, bool training) {
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
    reshape_seq(cache_zr_, t_len, batch, 2 * h);
    reshape_seq(cache_n_, t_len, batch, h);
    reshape_seq(cache_h_prev_, t_len, batch, h);
    reshape_seq(cache_rh_, t_len, batch, h);
  }
  zero_state_.reshape(batch, h);
  zero_state_.fill(0.0);

  const tensor::Matrix* h_prev = &zero_state_;
  for (std::size_t t = 0; t < t_len; ++t) {
    const tensor::Matrix& x = inputs[t];
    if (x.cols() != in_) throw std::invalid_argument("Gru: input width mismatch");

    tensor::Matrix& zr_pre = training ? cache_zr_[t] : zr_ws_;
    matmul_into(x, wx_zr_, zr_pre);
    tensor::matmul_accumulate(*h_prev, wh_zr_, zr_pre);
    tensor::add_row_broadcast(zr_pre, b_zr_);

    tensor::Matrix& rh = training ? cache_rh_[t] : rh_ws_;
    rh.reshape(batch, h);
    for (std::size_t row = 0; row < batch; ++row) {
      double* pre = zr_pre.row_ptr(row);
      const double* hp = h_prev->row_ptr(row);
      double* rhr = rh.row_ptr(row);
      // Fused sigmoid over the contiguous [z | r] blocks, then r .* h_prev.
      for (std::size_t j = 0; j < 2 * h; ++j) pre[j] = sigmoid(pre[j]);
      for (std::size_t j = 0; j < h; ++j) rhr[j] = pre[h + j] * hp[j];
    }

    tensor::Matrix& n = training ? cache_n_[t] : n_ws_;
    matmul_into(x, wx_n_, n);
    tensor::matmul_accumulate(rh, wh_n_, n);
    tensor::add_row_broadcast(n, b_n_);
    tensor::apply_inplace(n, [](double v) { return std::tanh(v); });

    tensor::Matrix& h_cur = out[t];
    for (std::size_t row = 0; row < batch; ++row) {
      const double* zr = zr_pre.row_ptr(row);
      const double* nr = n.row_ptr(row);
      const double* hp = h_prev->row_ptr(row);
      double* hc = h_cur.row_ptr(row);
      for (std::size_t j = 0; j < h; ++j) hc[j] = (1.0 - zr[j]) * nr[j] + zr[j] * hp[j];
    }

    if (training) {
      cache_x_[t].copy_from(x);
      cache_h_prev_[t].copy_from(*h_prev);
    }
    h_prev = &out[t];
  }
}

void Gru::backward_into(const SeqBatch& output_grads, SeqBatch* input_grads) {
  const std::size_t t_len = cache_x_.size();
  if (output_grads.size() != t_len) throw std::logic_error("Gru::backward: length mismatch");
  if (t_len == 0) {
    if (input_grads != nullptr) input_grads->clear();
    return;
  }
  const std::size_t batch = cache_x_[0].rows();
  const std::size_t h = hidden_;

  if (input_grads != nullptr) {
    tensor::transpose_into(wx_zr_, wxT_zr_ws_);
    tensor::transpose_into(wx_n_, wxT_n_ws_);
    reshape_seq(*input_grads, t_len, batch, in_);
  }
  tensor::transpose_into(wh_zr_, whT_zr_ws_);
  tensor::transpose_into(wh_n_, whT_n_ws_);

  dh_next_ws_.reshape(batch, h);
  dh_next_ws_.fill(0.0);
  dn_pre_ws_.reshape(batch, h);
  dzr_pre_ws_.reshape(batch, 2 * h);
  dh_prev_ws_.reshape(batch, h);

  for (std::size_t t = t_len; t-- > 0;) {
    const tensor::Matrix& zr = cache_zr_[t];
    const tensor::Matrix& n = cache_n_[t];
    const tensor::Matrix& h_prev = cache_h_prev_[t];

    // First pass: everything except the dn_pre -> (drh -> dr, dh_prev) chain,
    // which needs the matmul through wh_n.
    for (std::size_t row = 0; row < batch; ++row) {
      const double* dho = output_grads[t].row_ptr(row);
      const double* dhn = dh_next_ws_.row_ptr(row);
      const double* zrr = zr.row_ptr(row);
      const double* nr = n.row_ptr(row);
      const double* hp = h_prev.row_ptr(row);
      double* dnp = dn_pre_ws_.row_ptr(row);
      double* dzp = dzr_pre_ws_.row_ptr(row);
      double* dhp = dh_prev_ws_.row_ptr(row);
      for (std::size_t j = 0; j < h; ++j) {
        double dh = dho[j] + dhn[j];
        double dz = dh * (hp[j] - nr[j]);
        double dn = dh * (1.0 - zrr[j]);
        dnp[j] = dn * (1.0 - nr[j] * nr[j]);
        dzp[j] = dz * zrr[j] * (1.0 - zrr[j]);
        dhp[j] = dh * zrr[j];
      }
    }

    // drh = dn_pre * wh_n^T; then dr = drh .* h_prev, dh_prev += drh .* r.
    matmul_into(dn_pre_ws_, whT_n_ws_, drh_ws_);
    for (std::size_t row = 0; row < batch; ++row) {
      const double* drhr = drh_ws_.row_ptr(row);
      const double* zrr = zr.row_ptr(row);
      const double* hp = h_prev.row_ptr(row);
      double* dzp = dzr_pre_ws_.row_ptr(row);
      double* dhp = dh_prev_ws_.row_ptr(row);
      for (std::size_t j = 0; j < h; ++j) {
        double dr = drhr[j] * hp[j];
        dzp[h + j] = dr * zrr[h + j] * (1.0 - zrr[h + j]);
        dhp[j] += drhr[j] * zrr[h + j];
      }
    }

    // Parameter gradients.
    tensor::matmul_transA_into(cache_x_[t], dn_pre_ws_, dwx_scratch_);
    dwx_n_ += dwx_scratch_;
    tensor::matmul_transA_into(cache_rh_[t], dn_pre_ws_, dwh_scratch_);
    dwh_n_ += dwh_scratch_;
    tensor::column_sums_into(dn_pre_ws_, db_scratch_);
    db_n_ += db_scratch_;
    tensor::matmul_transA_into(cache_x_[t], dzr_pre_ws_, dwx_scratch_);
    dwx_zr_ += dwx_scratch_;
    tensor::matmul_transA_into(h_prev, dzr_pre_ws_, dwh_scratch_);
    dwh_zr_ += dwh_scratch_;
    tensor::column_sums_into(dzr_pre_ws_, db_scratch_);
    db_zr_ += db_scratch_;

    // Input and recurrent grads (scratch keeps the historical "+= full
    // product" accumulation order, bit-for-bit).
    if (input_grads != nullptr) {
      matmul_into(dn_pre_ws_, wxT_n_ws_, (*input_grads)[t]);
      matmul_into(dzr_pre_ws_, wxT_zr_ws_, drh_ws_);
      (*input_grads)[t] += drh_ws_;
    }

    matmul_into(dzr_pre_ws_, whT_zr_ws_, drh_ws_);
    dh_prev_ws_ += drh_ws_;
    std::swap(dh_next_ws_, dh_prev_ws_);
  }
}

}  // namespace repro::nn

#include "nn/dense.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/ops.hpp"

namespace repro::nn {
namespace {

void activate_inplace(Activation act, tensor::Matrix& z) {
  switch (act) {
    case Activation::kIdentity:
      return;
    case Activation::kSigmoid:
      tensor::apply_inplace(z, [](double x) { return sigmoid(x); });
      return;
    case Activation::kTanh:
      tensor::apply_inplace(z, [](double x) { return std::tanh(x); });
      return;
    case Activation::kRelu:
      tensor::apply_inplace(z, [](double x) { return relu(x); });
      return;
  }
  throw std::logic_error("Dense: unknown activation");
}

}  // namespace

Dense::Dense(std::size_t in, std::size_t out, Activation act, common::Pcg32& rng)
    : w_(tensor::Matrix::random_uniform(in, out,
                                        std::sqrt(6.0 / static_cast<double>(in + out)), rng)),
      b_(1, out, 0.0),
      dw_(in, out, 0.0),
      db_(1, out, 0.0),
      act_(act) {
  param_refs_ = {{"dense.w", &w_, &dw_}, {"dense.b", &b_, &db_}};
}

void Dense::forward_matrix_into(const tensor::Matrix& x, tensor::Matrix& out, bool training) {
  matmul_into(x, w_, out);
  tensor::add_row_broadcast(out, b_);
  activate_inplace(act_, out);
  if (training) {
    if (cache_depth_ == cached_x_.size()) {
      cached_x_.emplace_back();
      cached_y_.emplace_back();
    }
    cached_x_[cache_depth_].copy_from(x);
    cached_y_[cache_depth_].copy_from(out);
    ++cache_depth_;
  }
}

void Dense::backward_matrix_into(const tensor::Matrix& dy, tensor::Matrix& dx) {
  if (cache_depth_ == 0) throw std::logic_error("Dense::backward without forward cache");
  --cache_depth_;
  const tensor::Matrix& x = cached_x_[cache_depth_];
  const tensor::Matrix& y = cached_y_[cache_depth_];

  dz_ws_.copy_from(dy);
  switch (act_) {
    case Activation::kIdentity:
      break;
    case Activation::kSigmoid: {
      const double* yp = y.data();
      double* dp = dz_ws_.data();
      for (std::size_t i = 0; i < dz_ws_.size(); ++i) dp[i] *= dsigmoid_from_y(yp[i]);
      break;
    }
    case Activation::kTanh: {
      const double* yp = y.data();
      double* dp = dz_ws_.data();
      for (std::size_t i = 0; i < dz_ws_.size(); ++i) dp[i] *= dtanh_from_y(yp[i]);
      break;
    }
    case Activation::kRelu: {
      const double* yp = y.data();
      double* dp = dz_ws_.data();
      for (std::size_t i = 0; i < dz_ws_.size(); ++i) dp[i] *= drelu_from_y(yp[i]);
      break;
    }
  }

  tensor::matmul_transA_into(x, dz_ws_, dw_scratch_);
  dw_ += dw_scratch_;
  tensor::column_sums_into(dz_ws_, db_scratch_);
  db_ += db_scratch_;
  tensor::transpose_into(w_, wT_ws_);
  matmul_into(dz_ws_, wT_ws_, dx);
}

void Dense::forward_into(const SeqBatch& inputs, SeqBatch& out, bool training) {
  if (out.size() != inputs.size()) out.resize(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    forward_matrix_into(inputs[i], out[i], training);
  }
}

void Dense::backward_into(const SeqBatch& output_grads, SeqBatch* input_grads) {
  if (input_grads != nullptr && input_grads->size() != output_grads.size()) {
    input_grads->resize(output_grads.size());
  }
  // Caches are LIFO: walk the grads back-to-front.
  for (std::size_t i = output_grads.size(); i-- > 0;) {
    backward_matrix_into(output_grads[i],
                         input_grads != nullptr ? (*input_grads)[i] : dx_unread_ws_);
  }
}

}  // namespace repro::nn

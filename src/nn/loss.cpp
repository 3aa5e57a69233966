#include "nn/loss.hpp"

#include <stdexcept>

namespace repro::nn {

LossResult mse_loss(const tensor::Matrix& pred, const tensor::Matrix& target) {
  LossResult out;
  mse_loss_into(pred, target, out);
  return out;
}

void mse_loss_into(const tensor::Matrix& pred, const tensor::Matrix& target, LossResult& out) {
  if (!pred.same_shape(target)) throw std::invalid_argument("mse_loss: shape mismatch");
  out.grad.reshape(pred.rows(), pred.cols());
  const double n = static_cast<double>(pred.size());
  const double* pp = pred.data();
  const double* tp = target.data();
  double* gp = out.grad.data();
  double sum = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    double e = pp[i] - tp[i];
    sum += e * e;
    gp[i] = 2.0 * e / n;
  }
  out.value = sum / n;
}

}  // namespace repro::nn

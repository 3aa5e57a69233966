#pragma once
// The regression loss: mean squared error, returned with its gradient
// w.r.t. the predictions (already divided by the element count).
#include "tensor/matrix.hpp"

namespace repro::nn {

struct LossResult {
  double value = 0.0;
  tensor::Matrix grad;  ///< dL/dpred, same shape as pred
};

LossResult mse_loss(const tensor::Matrix& pred, const tensor::Matrix& target);

/// Workspace variant of mse_loss: grad is reshaped in place, so a caller
/// that reuses `out` across steps allocates nothing.
void mse_loss_into(const tensor::Matrix& pred, const tensor::Matrix& target, LossResult& out);

}  // namespace repro::nn

#pragma once
// The Adam optimizer over a registered parameter list, and global-norm
// gradient clipping.
#include <unordered_map>
#include <vector>

#include "nn/layer.hpp"

namespace repro::nn {

class Adam {
 public:
  explicit Adam(double lr, double beta1 = 0.9, double beta2 = 0.999, double eps = 1e-8);
  /// Apply one update using each param's accumulated gradient; caller is
  /// responsible for zeroing gradients afterwards.
  void step(const std::vector<ParamRef>& params);

 private:
  double lr_;
  double beta1_, beta2_, eps_;
  long t_ = 0;
  std::unordered_map<tensor::Matrix*, tensor::Matrix> m_, v_;
};

/// Scale all gradients so their global L2 norm is at most max_norm.
/// Returns the pre-clip norm.
double clip_grad_norm(const std::vector<ParamRef>& params, double max_norm);

}  // namespace repro::nn

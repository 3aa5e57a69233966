#include "nn/optimizer.hpp"

#include <cmath>

namespace repro::nn {
namespace {

tensor::Matrix& state_for(std::unordered_map<tensor::Matrix*, tensor::Matrix>& map,
                          tensor::Matrix* key) {
  auto it = map.find(key);
  if (it == map.end()) {
    it = map.emplace(key, tensor::Matrix(key->rows(), key->cols(), 0.0)).first;
  }
  return it->second;
}

}  // namespace

Adam::Adam(double lr, double beta1, double beta2, double eps)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {}

void Adam::step(const std::vector<ParamRef>& params) {
  ++t_;
  double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (const auto& p : params) {
    tensor::Matrix& m = state_for(m_, p.value);
    tensor::Matrix& v = state_for(v_, p.value);
    double* mp = m.data();
    double* vp2 = v.data();
    const double* gp = p.grad->data();
    double* wp = p.value->data();
    for (std::size_t i = 0; i < m.size(); ++i) {
      mp[i] = beta1_ * mp[i] + (1.0 - beta1_) * gp[i];
      vp2[i] = beta2_ * vp2[i] + (1.0 - beta2_) * gp[i] * gp[i];
      double mhat = mp[i] / bc1;
      double vhat = vp2[i] / bc2;
      wp[i] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
  }
}

double clip_grad_norm(const std::vector<ParamRef>& params, double max_norm) {
  double sq = 0.0;
  for (const auto& p : params) {
    const double* gp = p.grad->data();
    for (std::size_t i = 0; i < p.grad->size(); ++i) sq += gp[i] * gp[i];
  }
  double norm = std::sqrt(sq);
  if (norm > max_norm && norm > 0.0) {
    double scale = max_norm / norm;
    for (const auto& p : params) (*p.grad) *= scale;
  }
  return norm;
}

}  // namespace repro::nn

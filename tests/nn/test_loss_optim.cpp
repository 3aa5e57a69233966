#include <gtest/gtest.h>

#include <cmath>

#include "nn/loss.hpp"
#include "nn/optimizer.hpp"

namespace repro::nn {
namespace {

TEST(MseLoss, ValueAndGradient) {
  tensor::Matrix pred{{2.0, 3.0}};
  tensor::Matrix target{{1.0, 5.0}};
  LossResult r = mse_loss(pred, target);
  EXPECT_NEAR(r.value, (1.0 + 4.0) / 2.0, 1e-12);
  EXPECT_NEAR(r.grad(0, 0), 2.0 * 1.0 / 2.0, 1e-12);
  EXPECT_NEAR(r.grad(0, 1), 2.0 * -2.0 / 2.0, 1e-12);
}

TEST(MseLoss, ZeroAtPerfectPrediction) {
  tensor::Matrix p{{1.0, 2.0}};
  LossResult r = mse_loss(p, p);
  EXPECT_DOUBLE_EQ(r.value, 0.0);
  EXPECT_DOUBLE_EQ(r.grad.frobenius_norm(), 0.0);
}

TEST(Loss, ShapeMismatchThrows) {
  EXPECT_THROW(mse_loss(tensor::Matrix(1, 2), tensor::Matrix(2, 1)), std::invalid_argument);
}

TEST(Loss, GradNumericallyConsistent) {
  tensor::Matrix pred{{0.3, -0.7, 1.1}};
  tensor::Matrix target{{0.1, 0.2, 0.9}};
  LossResult r = mse_loss(pred, target);
  const double h = 1e-7;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    tensor::Matrix pp = pred, pm = pred;
    pp.data()[i] += h;
    pm.data()[i] -= h;
    double numeric = (mse_loss(pp, target).value - mse_loss(pm, target).value) / (2 * h);
    EXPECT_NEAR(r.grad.data()[i], numeric, 1e-6);
  }
}

class QuadraticProblem {
 public:
  // Minimize f(w) = ||w - target||^2 (per-element gradient 2(w - target)).
  QuadraticProblem() : w_(1, 4, 0.0), g_(1, 4, 0.0), target_{{1.0, -2.0, 0.5, 3.0}} {}

  std::vector<ParamRef> params() { return {{"w", &w_, &g_}}; }
  void compute_grad() {
    for (std::size_t i = 0; i < w_.size(); ++i) {
      g_.data()[i] = 2.0 * (w_.data()[i] - target_.data()[i]);
    }
  }
  double distance() const {
    double d = 0.0;
    for (std::size_t i = 0; i < w_.size(); ++i) {
      double e = w_.data()[i] - target_.data()[i];
      d += e * e;
    }
    return std::sqrt(d);
  }

 private:
  tensor::Matrix w_, g_, target_;
};

template <typename Opt>
void expect_converges(Opt&& opt, int steps, double tol) {
  QuadraticProblem prob;
  for (int i = 0; i < steps; ++i) {
    prob.compute_grad();
    opt.step(prob.params());
  }
  EXPECT_LT(prob.distance(), tol);
}

TEST(Optimizers, AdamConverges) { expect_converges(Adam(0.05), 800, 1e-3); }

TEST(Optimizers, ClipGradNorm) {
  tensor::Matrix w(1, 2), g{{3.0, 4.0}};
  std::vector<ParamRef> params = {{"w", &w, &g}};
  double pre = clip_grad_norm(params, 1.0);
  EXPECT_NEAR(pre, 5.0, 1e-12);
  EXPECT_NEAR(std::sqrt(g(0, 0) * g(0, 0) + g(0, 1) * g(0, 1)), 1.0, 1e-12);
}

TEST(Optimizers, ClipNoOpWhenBelowMax) {
  tensor::Matrix w(1, 2), g{{0.3, 0.4}};
  std::vector<ParamRef> params = {{"w", &w, &g}};
  clip_grad_norm(params, 1.0);
  EXPECT_NEAR(g(0, 0), 0.3, 1e-15);
}

}  // namespace
}  // namespace repro::nn

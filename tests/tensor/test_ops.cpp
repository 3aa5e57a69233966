#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>

#include "common/rng.hpp"

namespace repro::tensor {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, common::Pcg32& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.uniform(-1.0, 1.0);
  return m;
}

Matrix naive_matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) s += a(i, k) * b(k, j);
      c(i, j) = s;
    }
  }
  return c;
}

TEST(Ops, MatmulKnownValues) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  Matrix c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Ops, MatmulMatchesNaiveOnRandom) {
  common::Pcg32 rng(5);
  Matrix a = random_matrix(37, 53, rng);
  Matrix b = random_matrix(53, 29, rng);
  Matrix fast = matmul(a, b);
  Matrix slow = naive_matmul(a, b);
  ASSERT_TRUE(fast.same_shape(slow));
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast.data()[i], slow.data()[i], 1e-10);
  }
}

TEST(Ops, MatmulShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
}

TEST(Ops, MatmulAccumulateAddsIntoC) {
  Matrix a{{1, 0}, {0, 1}};
  Matrix b{{2, 3}, {4, 5}};
  Matrix c(2, 2, 10.0);
  matmul_accumulate(a, b, c);
  EXPECT_DOUBLE_EQ(c(0, 0), 12.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 15.0);
}

TEST(Ops, TransAMatchesExplicitTranspose) {
  common::Pcg32 rng(6);
  Matrix a = random_matrix(20, 11, rng);
  Matrix b = random_matrix(20, 7, rng);
  Matrix fast = matmul_transA(a, b);
  Matrix slow = naive_matmul(a.transposed(), b);
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast.data()[i], slow.data()[i], 1e-10);
  }
}

TEST(Ops, TransBMatchesExplicitTranspose) {
  common::Pcg32 rng(7);
  Matrix a = random_matrix(13, 17, rng);
  Matrix b = random_matrix(9, 17, rng);
  Matrix fast = matmul_transB(a, b);
  Matrix slow = naive_matmul(a, b.transposed());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast.data()[i], slow.data()[i], 1e-10);
  }
}

TEST(Ops, Matvec) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  std::vector<double> y = matvec(a, {1.0, 0.0, -1.0});
  EXPECT_DOUBLE_EQ(y[0], -2.0);
  EXPECT_DOUBLE_EQ(y[1], -2.0);
  EXPECT_THROW(matvec(a, {1.0}), std::invalid_argument);
}

TEST(Ops, RowBroadcastAndColumnSums) {
  Matrix m{{1, 2}, {3, 4}};
  Matrix bias(1, 2);
  bias(0, 0) = 10;
  bias(0, 1) = 20;
  add_row_broadcast(m, bias);
  EXPECT_DOUBLE_EQ(m(0, 0), 11.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 24.0);
  Matrix sums = column_sums(m);
  EXPECT_DOUBLE_EQ(sums(0, 0), 24.0);
  EXPECT_DOUBLE_EQ(sums(0, 1), 46.0);
}

TEST(Ops, ApplyAndApplyInplace) {
  Matrix m{{1, -2}, {-3, 4}};
  Matrix abs_m = apply(m, [](double x) { return x < 0 ? -x : x; });
  EXPECT_DOUBLE_EQ(abs_m(0, 1), 2.0);
  apply_inplace(m, [](double x) { return x * 2.0; });
  EXPECT_DOUBLE_EQ(m(1, 0), -6.0);
}

TEST(Ops, DotAndNorm) {
  EXPECT_DOUBLE_EQ(dot({1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_DOUBLE_EQ(l2_norm({3, 4}), 5.0);
  EXPECT_THROW(dot({1.0}, {1.0, 2.0}), std::invalid_argument);
}

#ifdef __linux__
// Threads in this process, from /proc/self/status.
std::size_t thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  }
  return 0;
}

TEST(Ops, SmallGemmStartsNoThreads) {
  // The threadsafe style re-executes the binary for this statement, so no
  // earlier test has started the global pool. A control round's GEMM is far
  // below the parallel threshold and must leave the process single-threaded.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        const std::size_t before = thread_count();
        Matrix a(4, 32, 0.5);
        Matrix b(32, 128, 0.25);
        Matrix c;
        matmul_into(a, b, c);
        matmul_accumulate(a, b, c);
        std::exit(before == 1 && thread_count() == before ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}
#endif

TEST(Ops, LargeMatmulUsesThreadPoolCorrectly) {
  // Big enough to cross the parallel threshold.
  common::Pcg32 rng(9);
  Matrix a = random_matrix(200, 160, rng);
  Matrix b = random_matrix(160, 180, rng);
  Matrix fast = matmul(a, b);
  Matrix slow = naive_matmul(a, b);
  double max_err = 0.0;
  for (std::size_t i = 0; i < fast.size(); ++i) {
    max_err = std::max(max_err, std::abs(fast.data()[i] - slow.data()[i]));
  }
  EXPECT_LT(max_err, 1e-9);
}

}  // namespace
}  // namespace repro::tensor

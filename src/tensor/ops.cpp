#include "tensor/ops.hpp"

#include <cmath>
#include <stdexcept>

#include "common/thread_pool.hpp"

namespace repro::tensor {
namespace {

constexpr std::size_t kParallelThresholdFlops = 1u << 22;  // ~4M flops
constexpr std::size_t kRowBlock = 4;  ///< output rows per register block

// Register-blocked microkernel: the MR x NR block C(i..i+MR, j..j+NR) is
// held in registers across the whole k loop, so each multiply-add costs no
// C load or store, each B element loaded serves MR rows and each A element
// NR columns. Every C(i,j) still accumulates its k terms in ascending order
// in a single chain from its own start value, exactly like the naive triple
// loop, so the block shape never changes a bit of the result. The k loop
// steps a B-row pointer rather than an index: GCC -O3 then vectorizes
// across the block's columns instead of pairing k steps with shuffles,
// about 2x faster on the LSTM shapes.
template <std::size_t MR, std::size_t NR>
inline void gemm_block(const double* a, std::size_t lda, const double* b, std::size_t ldb,
                       double* c, std::size_t ldc, std::size_t k_dim) {
  double s[MR][NR];
#pragma GCC unroll 8
  for (std::size_t r = 0; r < MR; ++r) {
#pragma GCC unroll 8
    for (std::size_t j = 0; j < NR; ++j) s[r][j] = c[r * ldc + j];
  }
  const double* const bend = b + k_dim * ldb;
  for (const double* bk = b; bk != bend; bk += ldb, ++a) {
#pragma GCC unroll 8
    for (std::size_t r = 0; r < MR; ++r) {
      const double av = a[r * lda];
#pragma GCC unroll 8
      for (std::size_t j = 0; j < NR; ++j) s[r][j] += av * bk[j];
    }
  }
#pragma GCC unroll 8
  for (std::size_t r = 0; r < MR; ++r) {
#pragma GCC unroll 8
    for (std::size_t j = 0; j < NR; ++j) c[r * ldc + j] = s[r][j];
  }
}

// MR output rows starting at row i: NR-wide column blocks, then one column
// at a time. A single row keeps the wider 8-column block.
template <std::size_t MR>
void gemm_panel(const Matrix& a, const Matrix& b, Matrix& c, std::size_t i) {
  constexpr std::size_t NR = MR == 1 ? 8 : 4;
  const std::size_t k_dim = a.cols();
  const std::size_t n = b.cols();
  const double* arow = a.row_ptr(i);
  const double* bbase = b.row_ptr(0);
  double* crow = c.row_ptr(i);
  std::size_t j = 0;
  for (; j + NR <= n; j += NR) gemm_block<MR, NR>(arow, k_dim, bbase + j, n, crow + j, n, k_dim);
  for (; j < n; ++j) gemm_block<MR, 1>(arow, k_dim, bbase + j, n, crow + j, n, k_dim);
}

void gemm_rows(const Matrix& a, const Matrix& b, Matrix& c, std::size_t r0, std::size_t r1) {
  if (a.cols() == 0 || b.cols() == 0) return;  // nothing to accumulate
  std::size_t i = r0;
  for (; i + kRowBlock <= r1; i += kRowBlock) gemm_panel<kRowBlock>(a, b, c, i);
  switch (r1 - i) {
    case 3: gemm_panel<3>(a, b, c, i); break;
    case 2: gemm_panel<2>(a, b, c, i); break;
    case 1: gemm_panel<1>(a, b, c, i); break;
    default: break;
  }
}

}  // namespace

void matmul_accumulate(const Matrix& a, const Matrix& b, Matrix& c) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("matmul: inner dims " + a.shape_string() + " vs " + b.shape_string());
  }
  if (c.rows() != a.rows() || c.cols() != b.cols()) {
    throw std::invalid_argument("matmul: bad output shape " + c.shape_string());
  }
  std::size_t flops = a.rows() * a.cols() * b.cols();
  auto& pool = common::ThreadPool::global();
  // Row-partitioned: each output row is computed entirely by one task, so the
  // result does not depend on the thread count. Runs inline from pool workers
  // (nested parallelism would deadlock wait_idle) and for small problems.
  if (flops >= kParallelThresholdFlops && pool.size() > 1 && a.rows() >= 2 &&
      !common::ThreadPool::in_worker_thread()) {
    std::size_t grain = (a.rows() + 2 * pool.size() - 1) / (2 * pool.size());
    grain = (grain + kRowBlock - 1) / kRowBlock * kRowBlock;  // whole row blocks per task
    pool.parallel_for(
        a.rows(),
        [&a, &b, &c](std::size_t lo, std::size_t hi) { gemm_rows(a, b, c, lo, hi); },
        std::max<std::size_t>(1, grain));
  } else {
    gemm_rows(a, b, c, 0, a.rows());
  }
}

void matmul_into(const Matrix& a, const Matrix& b, Matrix& c) {
  c.reshape(a.rows(), b.cols());
  c.fill(0.0);
  matmul_accumulate(a, b, c);
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  matmul_accumulate(a, b, c);
  return c;
}

void matmul_transA_into(const Matrix& a, const Matrix& b, Matrix& c) {
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("matmul_transA: dims " + a.shape_string() + " vs " + b.shape_string());
  }
  c.reshape(a.cols(), b.cols());
  const std::size_t n = b.cols();
  const std::size_t m = a.cols();
  const std::size_t k_dim = a.rows();
  // One output row at a time with an 8-wide register block, reading A down
  // a column (stride m, but A is small enough to sit in L1 for the training
  // shapes). Per (i,j) the accumulation is k-ascending in one chain, matching
  // the historical k-outer kernel bit-for-bit.
  if (k_dim == 0) {
    c.fill(0.0);
    return;
  }
  const double* abase = a.row_ptr(0);
  const double* bbase = b.row_ptr(0);
  for (std::size_t i = 0; i < m; ++i) {
    const double* acol = abase + i;
    double* crow = c.row_ptr(i);
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      double s4 = 0.0, s5 = 0.0, s6 = 0.0, s7 = 0.0;
      const double* bcol = bbase + j;
      for (std::size_t k = 0; k < k_dim; ++k) {
        const double av = acol[k * m];
        const double* br = bcol + k * n;
        s0 += av * br[0];
        s1 += av * br[1];
        s2 += av * br[2];
        s3 += av * br[3];
        s4 += av * br[4];
        s5 += av * br[5];
        s6 += av * br[6];
        s7 += av * br[7];
      }
      crow[j] = s0;
      crow[j + 1] = s1;
      crow[j + 2] = s2;
      crow[j + 3] = s3;
      crow[j + 4] = s4;
      crow[j + 5] = s5;
      crow[j + 6] = s6;
      crow[j + 7] = s7;
    }
    for (; j < n; ++j) {
      double s = 0.0;
      const double* bcol = bbase + j;
      for (std::size_t k = 0; k < k_dim; ++k) s += acol[k * m] * bcol[k * n];
      crow[j] = s;
    }
  }
}

Matrix matmul_transA(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_transA_into(a, b, c);
  return c;
}

Matrix matmul_transB(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.cols()) {
    throw std::invalid_argument("matmul_transB: dims " + a.shape_string() + " vs " + b.shape_string());
  }
  Matrix c(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.row_ptr(i);
    double* crow = c.row_ptr(i);
    for (std::size_t j = 0; j < b.rows(); ++j) {
      const double* brow = b.row_ptr(j);
      double s = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) s += arow[k] * brow[k];
      crow[j] = s;
    }
  }
  return c;
}

std::vector<double> matvec(const Matrix& a, const std::vector<double>& x) {
  if (a.cols() != x.size()) throw std::invalid_argument("matvec: dim mismatch");
  std::vector<double> y(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.row_ptr(i);
    double s = 0.0;
    for (std::size_t j = 0; j < x.size(); ++j) s += arow[j] * x[j];
    y[i] = s;
  }
  return y;
}

void add_row_broadcast(Matrix& m, const Matrix& row) {
  if (row.rows() != 1 || row.cols() != m.cols()) {
    throw std::invalid_argument("add_row_broadcast: shape mismatch");
  }
  const double* r = row.data();
  for (std::size_t i = 0; i < m.rows(); ++i) {
    double* mrow = m.row_ptr(i);
    for (std::size_t j = 0; j < m.cols(); ++j) mrow[j] += r[j];
  }
}

void column_sums_into(const Matrix& m, Matrix& out) {
  out.reshape(1, m.cols());
  out.fill(0.0);
  double* o = out.data();
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const double* row = m.row_ptr(i);
    for (std::size_t j = 0; j < m.cols(); ++j) o[j] += row[j];
  }
}

Matrix column_sums(const Matrix& m) {
  Matrix out;
  column_sums_into(m, out);
  return out;
}

void transpose_into(const Matrix& m, Matrix& out) {
  out.reshape(m.cols(), m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const double* src = m.row_ptr(r);
    for (std::size_t c = 0; c < m.cols(); ++c) out(c, r) = src[c];
  }
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) throw std::invalid_argument("dot: size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double l2_norm(const std::vector<double>& v) { return std::sqrt(dot(v, v)); }

}  // namespace repro::tensor

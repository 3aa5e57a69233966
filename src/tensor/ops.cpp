#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/thread_pool.hpp"

namespace repro::tensor {
namespace {

constexpr std::size_t kParallelThresholdFlops = 1u << 22;  // ~4M flops
constexpr std::size_t kRowBlock = 4;  ///< output rows per register block

/// One GEMM as the row kernels see it: C = op(A)·B, or C += op(A)·B when
/// `accumulate`. op(A)(i, k) is a[i * a_rs + k * a_ks], so the same kernel
/// reads A row-major for A·B (a_rs = cols, a_ks = 1) and down its columns
/// for Aᵀ·B (a_rs = 1, a_ks = cols). B is k_dim × n and C is m × n, both
/// row-major.
struct Gemm {
  const double* a;
  std::size_t a_rs, a_ks;
  const double* b;
  double* c;
  std::size_t m, n, k_dim;
  bool accumulate;  ///< false: C's old values are never read
};

// Register-blocked microkernel: the MR x NR block C(i..i+MR, j..j+NR) is
// held in registers across the whole k loop, so each multiply-add costs no
// C load or store, each B element loaded serves MR rows and each A element
// NR columns. Every C(i,j) still accumulates its k terms in ascending order
// in a single chain, from C's own value or from +0.0 (never from the first
// product: +0.0 + -0.0 is +0.0, so that would flip signed zeros), exactly
// like the naive triple loop, so the block shape never changes a bit of the
// result. The k loop steps a B-row pointer rather than an index: GCC -O3
// then vectorizes across the block's columns instead of pairing k steps
// with shuffles, about 2x faster on the LSTM shapes. Always inlined, so
// each instantiation below compiles it for its own target.
template <std::size_t MR, std::size_t NR>
[[gnu::always_inline]] inline void gemm_block(const Gemm& g, std::size_t i, std::size_t j) {
  const std::size_t n = g.n;
  const std::size_t a_rs = g.a_rs;
  const std::size_t a_ks = g.a_ks;
  double* const c = g.c + i * n + j;
  double s[MR][NR] = {};
  if (g.accumulate) {
#pragma GCC unroll 16
    for (std::size_t r = 0; r < MR; ++r) {
#pragma GCC unroll 16
      for (std::size_t q = 0; q < NR; ++q) s[r][q] = c[r * n + q];
    }
  }
  const double* a = g.a + i * a_rs;
  const double* const bend = g.b + j + g.k_dim * n;
  for (const double* bk = g.b + j; bk != bend; bk += n, a += a_ks) {
#pragma GCC unroll 16
    for (std::size_t r = 0; r < MR; ++r) {
      const double av = a[r * a_rs];
#pragma GCC unroll 16
      for (std::size_t q = 0; q < NR; ++q) s[r][q] += av * bk[q];
    }
  }
#pragma GCC unroll 16
  for (std::size_t r = 0; r < MR; ++r) {
#pragma GCC unroll 16
    for (std::size_t q = 0; q < NR; ++q) c[r * n + q] = s[r][q];
  }
}

// MR output rows starting at row i: NR-wide column blocks, then one column
// at a time.
template <std::size_t MR, std::size_t NR>
[[gnu::always_inline]] inline void gemm_panel(const Gemm& g, std::size_t i) {
  std::size_t j = 0;
  for (; j + NR <= g.n; j += NR) gemm_block<MR, NR>(g, i, j);
  for (; j < g.n; ++j) gemm_block<MR, 1>(g, i, j);
}

// Output rows [r0, r1): kRowBlock-row panels NR columns wide, then a 1–3
// row remainder; a lone row takes the wider NR1 block. With no k terms
// there is nothing to add (and A or B may be empty, their data null).
template <std::size_t NR, std::size_t NR1>
[[gnu::always_inline]] inline void gemm_rows(const Gemm& g, std::size_t r0, std::size_t r1) {
  if (g.k_dim == 0) {
    if (!g.accumulate) std::fill(g.c + r0 * g.n, g.c + r1 * g.n, 0.0);
    return;
  }
  std::size_t i = r0;
  for (; i + kRowBlock <= r1; i += kRowBlock) gemm_panel<kRowBlock, NR>(g, i);
  switch (r1 - i) {
    case 3: gemm_panel<3, NR>(g, i); break;
    case 2: gemm_panel<2, NR>(g, i); break;
    case 1: gemm_panel<1, NR1>(g, i); break;
    default: break;
  }
}

using GemmRowsFn = void (*)(const Gemm&, std::size_t, std::size_t);

// The two instantiations of the one kernel template. The baseline one is
// built for the compile target (SSE2 on x86-64): a 4x4 block, 8 columns for
// a lone row. The AVX2 one doubles the widths for 256-bit registers (4x8 =
// eight ymm accumulators, 16 columns for a lone row). Its target attribute
// names avx2 and not fma: without FMA the compiler cannot contract a
// multiply and an add into one rounding, so both instantiations round every
// operation alike and produce the same bits. The target is a function
// attribute, not a per-file -mavx2, so no inline function shared with the
// baseline path (a COMDAT copy the linker may pick) is built for AVX2.
void gemm_rows_baseline(const Gemm& g, std::size_t r0, std::size_t r1) {
  gemm_rows<4, 8>(g, r0, r1);
}

#if defined(__x86_64__) || defined(__i386__)
#define REPRO_GEMM_AVX2 1
[[gnu::target("avx2")]] void gemm_rows_avx2(const Gemm& g, std::size_t r0, std::size_t r1) {
  gemm_rows<8, 16>(g, r0, r1);
}

bool cpu_has_avx2() {
  __builtin_cpu_init();  // safe even if called before static constructors
  return __builtin_cpu_supports("avx2");
}
#endif

// C (op)= A·B over all rows. Row-partitioned across the global pool for
// large problems: each output row is computed entirely by one task, so the
// result does not depend on the thread count. Small problems never touch the
// pool (its first use starts hardware_concurrency threads), and pool workers
// run inline (nested parallelism would deadlock wait_idle).
void run_rows(GemmRowsFn rows, const Gemm& g) {
  if (g.m * g.k_dim * g.n >= kParallelThresholdFlops && g.m >= 2 &&
      !common::ThreadPool::in_worker_thread()) {
    auto& pool = common::ThreadPool::global();
    if (pool.size() > 1) {
      std::size_t grain = (g.m + 2 * pool.size() - 1) / (2 * pool.size());
      grain = (grain + kRowBlock - 1) / kRowBlock * kRowBlock;  // whole row blocks per task
      pool.parallel_for(
          g.m, [rows, &g](std::size_t lo, std::size_t hi) { rows(g, lo, hi); },
          std::max<std::size_t>(1, grain));
      return;
    }
  }
  rows(g, 0, g.m);
}

void check_inner(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("matmul: inner dims " + a.shape_string() + " vs " + b.shape_string());
  }
}

Gemm gemm_ab(const Matrix& a, const Matrix& b, Matrix& c, bool accumulate) {
  return {a.data(), a.cols(), 1, b.data(), c.data(), a.rows(), b.cols(), a.cols(), accumulate};
}

template <GemmRowsFn Rows>
void matmul_into_with(const Matrix& a, const Matrix& b, Matrix& c) {
  check_inner(a, b);
  c.reshape(a.rows(), b.cols());
  run_rows(Rows, gemm_ab(a, b, c, /*accumulate=*/false));
}

template <GemmRowsFn Rows>
void matmul_accumulate_with(const Matrix& a, const Matrix& b, Matrix& c) {
  check_inner(a, b);
  if (c.rows() != a.rows() || c.cols() != b.cols()) {
    throw std::invalid_argument("matmul: bad output shape " + c.shape_string());
  }
  run_rows(Rows, gemm_ab(a, b, c, /*accumulate=*/true));
}

// Aᵀ·B (the weight gradients) on the same blocked kernel, reading A down
// its columns; serial, as the training shapes are far below the threshold.
template <GemmRowsFn Rows>
void matmul_transA_into_with(const Matrix& a, const Matrix& b, Matrix& c) {
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("matmul_transA: dims " + a.shape_string() + " vs " + b.shape_string());
  }
  c.reshape(a.cols(), b.cols());
  Rows({a.data(), 1, a.cols(), b.data(), c.data(), a.cols(), b.cols(), a.rows(), false}, 0,
       a.cols());
}

template <GemmRowsFn Rows>
constexpr detail::GemmKernel kernel(const char* name, bool supported) {
  return {name, supported, &matmul_into_with<Rows>, &matmul_accumulate_with<Rows>,
          &matmul_transA_into_with<Rows>};
}

// Chosen once per process: the last (widest) kernel this CPU supports.
const detail::GemmKernel& active_kernel() {
  static const detail::GemmKernel& chosen = [] () -> const detail::GemmKernel& {
    const auto kernels = detail::gemm_kernels();
    const detail::GemmKernel* best = &kernels.front();
    for (const auto& k : kernels) {
      if (k.supported) best = &k;
    }
    return *best;
  }();
  return chosen;
}

}  // namespace

std::span<const detail::GemmKernel> detail::gemm_kernels() {
  static const GemmKernel kernels[] = {
      kernel<gemm_rows_baseline>("baseline", true),
#ifdef REPRO_GEMM_AVX2
      kernel<gemm_rows_avx2>("avx2", cpu_has_avx2()),
#endif
  };
  return kernels;
}

const char* gemm_kernel_name() { return active_kernel().name; }

void matmul_accumulate(const Matrix& a, const Matrix& b, Matrix& c) {
  active_kernel().matmul_accumulate(a, b, c);
}

void matmul_into(const Matrix& a, const Matrix& b, Matrix& c) {
  active_kernel().matmul_into(a, b, c);
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_into(a, b, c);
  return c;
}

void matmul_transA_into(const Matrix& a, const Matrix& b, Matrix& c) {
  active_kernel().matmul_transA_into(a, b, c);
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

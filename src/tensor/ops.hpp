#pragma once
// Matrix kernels: register-blocked GEMM variants and elementwise/rowwise
// helpers. All `_into` variants write into caller-owned buffers (reshaped as
// needed) so hot loops can run without heap allocations; per-output-element
// accumulation order is fixed (k ascending, single chain), which keeps
// results bit-identical regardless of buffer reuse or thread count.
#include <span>

#include "tensor/matrix.hpp"

namespace repro::tensor {

/// C = A * B. Register-blocked kernel (4 rows x 4 cols, or 4 x 8 on AVX2
/// CPUs); parallelized over row blocks via the global thread pool when
/// matrices are large.
Matrix matmul(const Matrix& a, const Matrix& b);

/// C = A * B into a reused buffer (reshaped, no allocation when capacity
/// suffices; C's old values are never read).
void matmul_into(const Matrix& a, const Matrix& b, Matrix& c);

/// C += A * B (accumulating GEMM).
void matmul_accumulate(const Matrix& a, const Matrix& b, Matrix& c);

/// C = A^T * B without materializing the transpose (the same blocked
/// kernel, reading A down its columns).
Matrix matmul_transA(const Matrix& a, const Matrix& b);

/// C = A^T * B into a reused buffer.
void matmul_transA_into(const Matrix& a, const Matrix& b, Matrix& c);

/// C = A * B^T without materializing the transpose.
Matrix matmul_transB(const Matrix& a, const Matrix& b);

/// y = A * x for a vector x (x.size() == A.cols()).
std::vector<double> matvec(const Matrix& a, const std::vector<double>& x);

/// Add a row vector to every row of m (broadcast bias add).
void add_row_broadcast(Matrix& m, const Matrix& row);

/// Column sums as a 1 x cols matrix (bias-gradient reduction).
Matrix column_sums(const Matrix& m);

/// Column sums into a reused 1 x cols buffer.
void column_sums_into(const Matrix& m, Matrix& out);

/// out = m^T into a reused buffer (cached-transpose weights for backward).
void transpose_into(const Matrix& m, Matrix& out);

/// Apply f elementwise, returning a new matrix.
template <typename F>
Matrix apply(const Matrix& m, F f) {
  Matrix out(m.rows(), m.cols());
  const double* src = m.data();
  double* dst = out.data();
  for (std::size_t i = 0; i < m.size(); ++i) dst[i] = f(src[i]);
  return out;
}

/// Apply f elementwise in place.
template <typename F>
void apply_inplace(Matrix& m, F f) {
  double* p = m.data();
  for (std::size_t i = 0; i < m.size(); ++i) p[i] = f(p[i]);
}

double dot(const std::vector<double>& a, const std::vector<double>& b);
double l2_norm(const std::vector<double>& v);

/// The GEMM kernel instantiation this process runs, chosen once from the
/// CPU's features: "avx2" or "baseline". Both produce the same bits.
const char* gemm_kernel_name();

namespace detail {

/// One compiled instantiation of the register-blocked GEMM kernel, bound to
/// the entry points it serves. Exposed so tests can check every
/// instantiation the CPU supports, not only the one the process picked.
struct GemmKernel {
  const char* name;
  bool supported;  ///< this CPU can execute it
  void (*matmul_into)(const Matrix& a, const Matrix& b, Matrix& c);
  void (*matmul_accumulate)(const Matrix& a, const Matrix& b, Matrix& c);
  void (*matmul_transA_into)(const Matrix& a, const Matrix& b, Matrix& c);
};

/// Every compiled instantiation, baseline first; the public GEMMs run the
/// last one whose `supported` is set.
std::span<const GemmKernel> gemm_kernels();

}  // namespace detail

}  // namespace repro::tensor

// Bit-exactness certification of the fused/workspace compute path.
//
// The fast kernels (register-blocked GEMM, fused gate loops, cached
// transposed weights, workspace reuse, batched inference, and the skipped
// bottom-layer input grads) must not change a single bit of any result
// relative to straightforward reference implementations of the same
// formulas. These tests pin that contract:
//   - GEMM variants vs naive scalar-accumulator loops
//   - Lstm/Gru forward + BPTT vs in-test reference implementations
//   - a batched Drnn::forward vs each sequence forwarded on its own
//   - Drnn::backward's parameter grads vs a backward that computes every
//     layer's input grads
//   - repeated training runs vs each other
//   - steady-state training and batched inference perform zero heap
//     allocations
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "nn/activations.hpp"
#include "nn/drnn.hpp"
#include "nn/gru.hpp"
#include "nn/lstm.hpp"
#include "nn/trainer.hpp"
#include "support/alloc_counter.hpp"
#include "tensor/ops.hpp"

namespace repro::nn {
namespace {

tensor::Matrix random_matrix(std::size_t rows, std::size_t cols, common::Pcg32& rng,
                             double sparsity = 0.0) {
  tensor::Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) {
    double v = rng.uniform(-1.5, 1.5);
    if (sparsity > 0.0 && rng.bernoulli(sparsity)) v = 0.0;
    m.data()[i] = v;
  }
  return m;
}

SeqBatch random_seq(std::size_t t_len, std::size_t batch, std::size_t dim, common::Pcg32& rng) {
  SeqBatch seq;
  for (std::size_t t = 0; t < t_len; ++t) seq.push_back(random_matrix(batch, dim, rng));
  return seq;
}

// Compares bit patterns, so a flipped signed zero fails (== would pass it).
void expect_bit_equal(const tensor::Matrix& a, const tensor::Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.data()[i]), std::bit_cast<std::uint64_t>(b.data()[i]))
        << what << " element " << i << ": " << a.data()[i] << " vs " << b.data()[i];
  }
}

// --- naive references (scalar accumulator, k ascending) --------------------

tensor::Matrix naive_matmul(const tensor::Matrix& a, const tensor::Matrix& b) {
  tensor::Matrix c(a.rows(), b.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      c(i, j) = acc;
    }
  }
  return c;
}

tensor::Matrix naive_transA(const tensor::Matrix& a, const tensor::Matrix& b) {
  tensor::Matrix c(a.cols(), b.cols(), 0.0);
  for (std::size_t i = 0; i < a.cols(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.rows(); ++k) acc += a(k, i) * b(k, j);
      c(i, j) = acc;
    }
  }
  return c;
}

tensor::Matrix naive_transB(const tensor::Matrix& a, const tensor::Matrix& b) {
  tensor::Matrix c(a.rows(), b.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.rows(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(j, k);
      c(i, j) = acc;
    }
  }
  return c;
}

TEST(ComputePath, GemmMatchesNaiveBitExact) {
  common::Pcg32 rng(42, 0x9);
  // Odd sizes exercise the microkernel edge handling; sparsity exercises the
  // removed zero-skip branch (+-0.0 edge cases included). The last shape is
  // large enough to split its rows over the thread pool.
  const std::size_t sizes[][3] = {{1, 1, 1},    {2, 3, 4},    {7, 13, 9},
                                  {16, 19, 32}, {33, 65, 17}, {130, 190, 170}};
  for (const auto& s : sizes) {
    tensor::Matrix a = random_matrix(s[0], s[1], rng, 0.3);
    tensor::Matrix b = random_matrix(s[1], s[2], rng, 0.3);
    expect_bit_equal(tensor::matmul(a, b), naive_matmul(a, b), "matmul");
    tensor::Matrix bt_a = random_matrix(s[0], s[2], rng, 0.3);
    expect_bit_equal(tensor::matmul_transA(a, bt_a), naive_transA(a, bt_a), "matmul_transA");
    tensor::Matrix bt = random_matrix(s[2], s[1], rng, 0.3);
    expect_bit_equal(tensor::matmul_transB(a, bt), naive_transB(a, bt), "matmul_transB");
  }

  // Every kernel instantiation this CPU can run, not only the one the
  // process picked. The blocks are 4 rows x 4 columns (8 for a lone row) in
  // the baseline kernel and 4 x 8 (16 for a lone row) in the AVX2 one:
  // every row remainder (m = 1..9, the output rows of A^T*B too), column
  // counts below, at and above every column block, the LSTM input width 19,
  // and an empty inner dimension. matmul_into and matmul_transA_into must
  // start each chain from +0.0 without reading C (C holds stale values
  // here); the accumulating form must continue each chain from C's own
  // start value.
  const char* widest = nullptr;
  for (const tensor::detail::GemmKernel& kernel : tensor::detail::gemm_kernels()) {
    if (!kernel.supported) continue;
    SCOPED_TRACE(kernel.name);
    widest = kernel.name;
    for (const auto& s : sizes) {
      tensor::Matrix a = random_matrix(s[0], s[1], rng, 0.3);
      tensor::Matrix b = random_matrix(s[1], s[2], rng, 0.3);
      tensor::Matrix c;
      kernel.matmul_into(a, b, c);
      expect_bit_equal(c, naive_matmul(a, b), "matmul_into");
      tensor::Matrix bt_a = random_matrix(s[0], s[2], rng, 0.3);
      kernel.matmul_transA_into(a, bt_a, c);
      expect_bit_equal(c, naive_transA(a, bt_a), "matmul_transA_into");
    }
    for (std::size_t m = 1; m <= 9; ++m) {
      for (std::size_t n : {1u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 19u, 24u, 33u}) {
        for (std::size_t k : {0u, 1u, 2u, 19u, 32u}) {
          tensor::Matrix a = random_matrix(m, k, rng, 0.3);
          tensor::Matrix b = random_matrix(k, n, rng, 0.3);
          tensor::Matrix c = random_matrix(m, n, rng);
          kernel.matmul_into(a, b, c);
          expect_bit_equal(c, naive_matmul(a, b), "matmul_into (row block)");

          c = random_matrix(m, n, rng);
          tensor::Matrix ref = c;
          for (std::size_t i = 0; i < m; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
              double acc = ref(i, j);
              for (std::size_t q = 0; q < k; ++q) acc += a(i, q) * b(q, j);
              ref(i, j) = acc;
            }
          }
          kernel.matmul_accumulate(a, b, c);
          expect_bit_equal(c, ref, "matmul_accumulate (row block)");

          tensor::Matrix at = random_matrix(k, m, rng, 0.3);
          c = random_matrix(m, n, rng);
          kernel.matmul_transA_into(at, b, c);
          expect_bit_equal(c, naive_transA(at, b), "matmul_transA_into (row block)");
        }
      }
    }
  }
  ASSERT_NE(widest, nullptr) << "no GEMM kernel supported";
  EXPECT_STREQ(tensor::gemm_kernel_name(), widest)
      << "the process must run the widest kernel the CPU supports";
}

TEST(ComputePath, IntoVariantsReuseBuffersAcrossShapes) {
  common::Pcg32 rng(7, 0x9);
  tensor::Matrix c, d, e;
  for (std::size_t n : {8u, 3u, 12u}) {  // shrink and grow the reused buffers
    tensor::Matrix a = random_matrix(n, n + 1, rng);
    tensor::Matrix b = random_matrix(n + 1, n + 2, rng);
    tensor::matmul_into(a, b, c);
    expect_bit_equal(c, naive_matmul(a, b), "matmul_into");
    tensor::Matrix b2 = random_matrix(n, 5, rng);
    tensor::matmul_transA_into(a, b2, d);
    expect_bit_equal(d, naive_transA(a, b2), "matmul_transA_into");
    tensor::transpose_into(a, e);
    for (std::size_t i = 0; i < a.rows(); ++i) {
      for (std::size_t j = 0; j < a.cols(); ++j) ASSERT_EQ(e(j, i), a(i, j));
    }
  }
}

TEST(ComputePath, ColumnSumsIntoMatchesReference) {
  common::Pcg32 rng(11, 0x9);
  tensor::Matrix m = random_matrix(9, 6, rng);
  tensor::Matrix out;
  tensor::column_sums_into(m, out);
  expect_bit_equal(out, tensor::column_sums(m), "column_sums_into");
}

// --- reference LSTM (pre-fusion implementation, same formulas) -------------

struct RefLstm {
  tensor::Matrix wx, wh, b;
  tensor::Matrix dwx, dwh, db;
  std::vector<tensor::Matrix> ci, cf, cg, co, cc, ctanh, chp, cx;

  SeqBatch forward(const SeqBatch& inputs) {
    const std::size_t t_len = inputs.size();
    const std::size_t batch = inputs[0].rows();
    const std::size_t h = wh.rows();
    ci.clear(); cf.clear(); cg.clear(); co.clear();
    cc.clear(); ctanh.clear(); chp.clear(); cx.clear();
    tensor::Matrix h_prev(batch, h, 0.0), c_prev(batch, h, 0.0);
    SeqBatch outputs;
    for (std::size_t t = 0; t < t_len; ++t) {
      tensor::Matrix z = tensor::matmul(inputs[t], wx);
      tensor::matmul_accumulate(h_prev, wh, z);
      tensor::add_row_broadcast(z, b);
      tensor::Matrix gi(batch, h), gf(batch, h), gg(batch, h), go(batch, h);
      tensor::Matrix c(batch, h), tanh_c(batch, h), h_cur(batch, h);
      for (std::size_t r = 0; r < batch; ++r) {
        const double* zr = z.row_ptr(r);
        const double* cp = c_prev.row_ptr(r);
        for (std::size_t j = 0; j < h; ++j) {
          gi(r, j) = sigmoid(zr[j]);
          gf(r, j) = sigmoid(zr[h + j]);
          gg(r, j) = std::tanh(zr[2 * h + j]);
          go(r, j) = sigmoid(zr[3 * h + j]);
          c(r, j) = gf(r, j) * cp[j] + gi(r, j) * gg(r, j);
          tanh_c(r, j) = std::tanh(c(r, j));
          h_cur(r, j) = go(r, j) * tanh_c(r, j);
        }
      }
      cx.push_back(inputs[t]); ci.push_back(gi); cf.push_back(gf); cg.push_back(gg);
      co.push_back(go); cc.push_back(c); ctanh.push_back(tanh_c); chp.push_back(h_prev);
      h_prev = h_cur;
      c_prev = std::move(c);
      outputs.push_back(std::move(h_cur));
    }
    return outputs;
  }

  SeqBatch backward(const SeqBatch& output_grads) {
    const std::size_t t_len = cx.size();
    const std::size_t batch = cx[0].rows();
    const std::size_t h = wh.rows();
    SeqBatch input_grads(t_len);
    tensor::Matrix dh_next(batch, h, 0.0), dc_next(batch, h, 0.0);
    for (std::size_t t = t_len; t-- > 0;) {
      tensor::Matrix dz(batch, 4 * h), dc_prev(batch, h);
      for (std::size_t r = 0; r < batch; ++r) {
        for (std::size_t j = 0; j < h; ++j) {
          double dh = output_grads[t](r, j) + dh_next(r, j);
          double d_o = dh * ctanh[t](r, j);
          double dc = dh * co[t](r, j) * (1.0 - ctanh[t](r, j) * ctanh[t](r, j)) + dc_next(r, j);
          double cprev_j = t > 0 ? cc[t - 1](r, j) : 0.0;
          double d_i = dc * cg[t](r, j);
          double d_f = dc * cprev_j;
          double d_g = dc * ci[t](r, j);
          dz(r, j) = d_i * ci[t](r, j) * (1.0 - ci[t](r, j));
          dz(r, h + j) = d_f * cf[t](r, j) * (1.0 - cf[t](r, j));
          dz(r, 2 * h + j) = d_g * (1.0 - cg[t](r, j) * cg[t](r, j));
          dz(r, 3 * h + j) = d_o * co[t](r, j) * (1.0 - co[t](r, j));
          dc_prev(r, j) = dc * cf[t](r, j);
        }
      }
      dwx += tensor::matmul_transA(cx[t], dz);
      dwh += tensor::matmul_transA(chp[t], dz);
      db += tensor::column_sums(dz);
      input_grads[t] = tensor::matmul_transB(dz, wx);
      dh_next = tensor::matmul_transB(dz, wh);
      dc_next = std::move(dc_prev);
    }
    return input_grads;
  }
};

TEST(ComputePath, LstmMatchesReferenceBitExact) {
  common::Pcg32 rng(5, 0x5);
  Lstm layer(6, 9, rng);
  RefLstm ref;
  const auto& prs = layer.param_refs();
  ref.wx = *prs[0].value; ref.wh = *prs[1].value; ref.b = *prs[2].value;
  ref.dwx = tensor::Matrix(6, 36, 0.0);
  ref.dwh = tensor::Matrix(9, 36, 0.0);
  ref.db = tensor::Matrix(1, 36, 0.0);

  common::Pcg32 data_rng(77, 0x3);
  SeqBatch input = random_seq(5, 4, 6, data_rng);
  SeqBatch coeffs = random_seq(5, 4, 9, data_rng);

  // Two rounds: the second exercises reused (already warm) workspaces.
  for (int round = 0; round < 2; ++round) {
    layer.zero_grads();
    SeqBatch out = layer.forward(input, /*training=*/true);
    SeqBatch ref_out = ref.forward(input);
    for (std::size_t t = 0; t < out.size(); ++t) {
      expect_bit_equal(out[t], ref_out[t], "lstm forward");
    }
    SeqBatch din = layer.backward(coeffs);
    ref.dwx.fill(0.0); ref.dwh.fill(0.0); ref.db.fill(0.0);
    SeqBatch ref_din = ref.backward(coeffs);
    for (std::size_t t = 0; t < din.size(); ++t) {
      expect_bit_equal(din[t], ref_din[t], "lstm input grads");
    }
    expect_bit_equal(*prs[0].grad, ref.dwx, "lstm dwx");
    expect_bit_equal(*prs[1].grad, ref.dwh, "lstm dwh");
    expect_bit_equal(*prs[2].grad, ref.db, "lstm db");
  }
}

// --- reference GRU (pre-fusion implementation, same formulas) --------------

struct RefGru {
  tensor::Matrix wx_zr, wh_zr, b_zr, wx_n, wh_n, b_n;
  tensor::Matrix dwx_zr, dwh_zr, db_zr, dwx_n, dwh_n, db_n;
  std::vector<tensor::Matrix> cz, cr, cn, chp, crh, cx;

  SeqBatch forward(const SeqBatch& inputs) {
    const std::size_t t_len = inputs.size();
    const std::size_t batch = inputs[0].rows();
    const std::size_t h = wh_n.rows();
    cz.clear(); cr.clear(); cn.clear(); chp.clear(); crh.clear(); cx.clear();
    tensor::Matrix h_prev(batch, h, 0.0);
    SeqBatch outputs;
    for (std::size_t t = 0; t < t_len; ++t) {
      tensor::Matrix zr_pre = tensor::matmul(inputs[t], wx_zr);
      tensor::matmul_accumulate(h_prev, wh_zr, zr_pre);
      tensor::add_row_broadcast(zr_pre, b_zr);
      tensor::Matrix z(batch, h), r(batch, h), rh(batch, h);
      for (std::size_t row = 0; row < batch; ++row) {
        for (std::size_t j = 0; j < h; ++j) {
          z(row, j) = sigmoid(zr_pre(row, j));
          r(row, j) = sigmoid(zr_pre(row, h + j));
          rh(row, j) = r(row, j) * h_prev(row, j);
        }
      }
      tensor::Matrix n_pre = tensor::matmul(inputs[t], wx_n);
      tensor::matmul_accumulate(rh, wh_n, n_pre);
      tensor::add_row_broadcast(n_pre, b_n);
      tensor::Matrix n = tanh_m(n_pre);
      tensor::Matrix h_cur(batch, h);
      for (std::size_t row = 0; row < batch; ++row) {
        for (std::size_t j = 0; j < h; ++j) {
          h_cur(row, j) = (1.0 - z(row, j)) * n(row, j) + z(row, j) * h_prev(row, j);
        }
      }
      cx.push_back(inputs[t]); cz.push_back(z); cr.push_back(r); cn.push_back(n);
      chp.push_back(h_prev); crh.push_back(rh);
      h_prev = h_cur;
      outputs.push_back(std::move(h_cur));
    }
    return outputs;
  }

  SeqBatch backward(const SeqBatch& output_grads) {
    const std::size_t t_len = cx.size();
    const std::size_t batch = cx[0].rows();
    const std::size_t h = wh_n.rows();
    SeqBatch input_grads(t_len);
    tensor::Matrix dh_next(batch, h, 0.0);
    for (std::size_t t = t_len; t-- > 0;) {
      tensor::Matrix dn_pre(batch, h), dzr_pre(batch, 2 * h), dh_prev(batch, h);
      for (std::size_t row = 0; row < batch; ++row) {
        for (std::size_t j = 0; j < h; ++j) {
          double dh = output_grads[t](row, j) + dh_next(row, j);
          double dz = dh * (chp[t](row, j) - cn[t](row, j));
          double dn = dh * (1.0 - cz[t](row, j));
          dn_pre(row, j) = dn * (1.0 - cn[t](row, j) * cn[t](row, j));
          dzr_pre(row, j) = dz * cz[t](row, j) * (1.0 - cz[t](row, j));
          dh_prev(row, j) = dh * cz[t](row, j);
        }
      }
      tensor::Matrix drh = tensor::matmul_transB(dn_pre, wh_n);
      for (std::size_t row = 0; row < batch; ++row) {
        for (std::size_t j = 0; j < h; ++j) {
          double dr = drh(row, j) * chp[t](row, j);
          dzr_pre(row, h + j) = dr * cr[t](row, j) * (1.0 - cr[t](row, j));
          dh_prev(row, j) += drh(row, j) * cr[t](row, j);
        }
      }
      dwx_n += tensor::matmul_transA(cx[t], dn_pre);
      dwh_n += tensor::matmul_transA(crh[t], dn_pre);
      db_n += tensor::column_sums(dn_pre);
      dwx_zr += tensor::matmul_transA(cx[t], dzr_pre);
      dwh_zr += tensor::matmul_transA(chp[t], dzr_pre);
      db_zr += tensor::column_sums(dzr_pre);
      tensor::Matrix dx = tensor::matmul_transB(dn_pre, wx_n);
      dx += tensor::matmul_transB(dzr_pre, wx_zr);
      input_grads[t] = std::move(dx);
      dh_prev += tensor::matmul_transB(dzr_pre, wh_zr);
      dh_next = std::move(dh_prev);
    }
    return input_grads;
  }
};

TEST(ComputePath, GruMatchesReferenceBitExact) {
  common::Pcg32 rng(5, 0x5);
  Gru layer(6, 9, rng);
  RefGru ref;
  const auto& prs = layer.param_refs();
  ref.wx_zr = *prs[0].value; ref.wh_zr = *prs[1].value; ref.b_zr = *prs[2].value;
  ref.wx_n = *prs[3].value; ref.wh_n = *prs[4].value; ref.b_n = *prs[5].value;
  ref.dwx_zr = tensor::Matrix(6, 18, 0.0);
  ref.dwh_zr = tensor::Matrix(9, 18, 0.0);
  ref.db_zr = tensor::Matrix(1, 18, 0.0);
  ref.dwx_n = tensor::Matrix(6, 9, 0.0);
  ref.dwh_n = tensor::Matrix(9, 9, 0.0);
  ref.db_n = tensor::Matrix(1, 9, 0.0);

  common::Pcg32 data_rng(78, 0x3);
  SeqBatch input = random_seq(5, 4, 6, data_rng);
  SeqBatch coeffs = random_seq(5, 4, 9, data_rng);

  for (int round = 0; round < 2; ++round) {
    layer.zero_grads();
    SeqBatch out = layer.forward(input, /*training=*/true);
    SeqBatch ref_out = ref.forward(input);
    for (std::size_t t = 0; t < out.size(); ++t) {
      expect_bit_equal(out[t], ref_out[t], "gru forward");
    }
    SeqBatch din = layer.backward(coeffs);
    ref.dwx_zr.fill(0.0); ref.dwh_zr.fill(0.0); ref.db_zr.fill(0.0);
    ref.dwx_n.fill(0.0); ref.dwh_n.fill(0.0); ref.db_n.fill(0.0);
    SeqBatch ref_din = ref.backward(coeffs);
    for (std::size_t t = 0; t < din.size(); ++t) {
      expect_bit_equal(din[t], ref_din[t], "gru input grads");
    }
    expect_bit_equal(*prs[0].grad, ref.dwx_zr, "gru dwx_zr");
    expect_bit_equal(*prs[1].grad, ref.dwh_zr, "gru dwh_zr");
    expect_bit_equal(*prs[2].grad, ref.db_zr, "gru db_zr");
    expect_bit_equal(*prs[3].grad, ref.dwx_n, "gru dwx_n");
    expect_bit_equal(*prs[4].grad, ref.dwh_n, "gru dwh_n");
    expect_bit_equal(*prs[5].grad, ref.db_n, "gru db_n");
  }
}

TEST(ComputePath, DenseMatchesReferenceBitExact) {
  common::Pcg32 rng(3, 0x5);
  Dense layer(7, 4, Activation::kTanh, rng);
  tensor::Matrix w = layer.weights();
  tensor::Matrix b = layer.bias();
  common::Pcg32 data_rng(9, 0x3);
  tensor::Matrix x = random_matrix(5, 7, data_rng);
  tensor::Matrix dy = random_matrix(5, 4, data_rng);

  for (int round = 0; round < 2; ++round) {
    layer.zero_grads();
    tensor::Matrix y = layer.forward_matrix(x, /*training=*/true);
    tensor::Matrix z = tensor::matmul(x, w);
    tensor::add_row_broadcast(z, b);
    tensor::Matrix ref_y = apply_activation(Activation::kTanh, z);
    expect_bit_equal(y, ref_y, "dense forward");

    tensor::Matrix dx = layer.backward_matrix(dy);
    tensor::Matrix dz = activation_backward(Activation::kTanh, dy, ref_y);
    expect_bit_equal(*layer.param_refs()[0].grad, tensor::matmul_transA(x, dz), "dense dw");
    expect_bit_equal(*layer.param_refs()[1].grad, tensor::column_sums(dz), "dense db");
    expect_bit_equal(dx, tensor::matmul_transB(dz, w), "dense dx");
  }
}

/// `w` sequences of [t_len x dim] stacked as a batch: step t is [w x dim].
SeqBatch stack_sequences(const std::vector<tensor::Matrix>& seqs) {
  SeqBatch batch(seqs.front().rows());
  for (std::size_t t = 0; t < batch.size(); ++t) {
    batch[t] = tensor::Matrix(seqs.size(), seqs.front().cols());
    for (std::size_t i = 0; i < seqs.size(); ++i) {
      for (std::size_t c = 0; c < seqs[i].cols(); ++c) batch[t](i, c) = seqs[i](t, c);
    }
  }
  return batch;
}

TEST(ComputePath, BatchedForwardMatchesPerSequence) {
  for (CellKind cell : {CellKind::kLstm, CellKind::kGru}) {
    DrnnConfig mc;
    mc.input_size = 5;
    mc.hidden_size = 12;
    mc.num_layers = 2;
    mc.cell = cell;
    mc.dropout = 0.25;  // identity at inference
    mc.output_size = 3;
    mc.seed = 21;
    Drnn model(mc);

    common::Pcg32 rng(4, 0x3);
    // Every row remainder of the GEMM's 4-row block, then a repeat of the
    // control round's batch of 4 on warm workspaces.
    for (std::size_t w : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 4u}) {
      std::vector<tensor::Matrix> seqs;
      for (std::size_t i = 0; i < w; ++i) seqs.push_back(random_matrix(10, 5, rng));
      const tensor::Matrix batched = model.forward(stack_sequences(seqs), /*training=*/false);
      ASSERT_EQ(batched.rows(), w);
      for (std::size_t i = 0; i < w; ++i) {
        // Reference: the sequence alone, as a batch of one.
        const tensor::Matrix alone = model.forward(stack_sequences({seqs[i]}), false);
        const std::vector<double> via_predict = model.predict(seqs[i]);
        for (std::size_t c = 0; c < mc.output_size; ++c) {
          ASSERT_EQ(batched(i, c), alone(0, c)) << "batch " << w << " row " << i;
          ASSERT_EQ(via_predict[c], alone(0, c)) << "predict() row " << i;
        }
      }
    }
  }
}

TEST(ComputePath, BackwardParamGradsMatchFullBackward) {
  // Drnn::backward skips the bottom layer's input grads. A backward that
  // still computes every layer's input grads must leave the same bits in
  // every parameter gradient.
  for (CellKind cell : {CellKind::kLstm, CellKind::kGru}) {
    DrnnConfig mc;
    mc.input_size = 7;
    mc.hidden_size = 10;
    mc.num_layers = 2;
    mc.cell = cell;
    mc.dropout = 0.2;  // same seed, so both models draw the same masks
    mc.output_size = 2;
    mc.seed = 33;
    Drnn skipping(mc);
    Drnn full(mc);

    common::Pcg32 rng(6, 0x3);
    SeqBatch input = random_seq(6, 5, 7, rng);
    tensor::Matrix d_out = random_matrix(5, 2, rng);
    for (int round = 0; round < 2; ++round) {
      skipping.zero_grads();
      skipping.forward(input, /*training=*/true);
      skipping.backward(d_out);

      full.zero_grads();
      full.forward(input, /*training=*/true);
      tensor::Matrix d_last = full.head().backward_matrix(d_out);
      SeqBatch grads(input.size());
      for (std::size_t t = 0; t < grads.size(); ++t) {
        grads[t] = tensor::Matrix(input[t].rows(), mc.hidden_size, 0.0);
      }
      grads.back() = d_last;
      const auto& layers = full.recurrent_layers();
      for (std::size_t i = layers.size(); i-- > 0;) grads = layers[i]->backward(grads);
      ASSERT_EQ(grads.size(), input.size());
      ASSERT_EQ(grads[0].cols(), mc.input_size);  // the bottom input grads exist

      const auto& a = skipping.param_refs();
      const auto& b = full.param_refs();
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t p = 0; p < a.size(); ++p) expect_bit_equal(*a[p].grad, *b[p].grad, "grad");
    }
  }
}

SequenceDataset make_dataset(std::size_t n, std::size_t t_len, std::size_t dim,
                             std::uint64_t seed) {
  common::Pcg32 rng(seed, 0x3);
  SequenceDataset ds;
  for (std::size_t i = 0; i < n; ++i) {
    tensor::Matrix seq = random_matrix(t_len, dim, rng);
    ds.append(std::move(seq), {rng.uniform(-1.0, 1.0)});
  }
  return ds;
}

std::vector<double> flat_weights(Drnn& model) {
  std::vector<double> out;
  for (const auto& p : model.param_refs()) {
    out.insert(out.end(), p.value->data(), p.value->data() + p.value->size());
  }
  return out;
}

TEST(ComputePath, SerialTrainStepMatchesFitPath) {
  // Run fit() twice with identical everything and expect identical weights
  // (sanity against accidental nondeterminism in the workspace reuse).
  SequenceDataset data = make_dataset(20, 5, 3, 13);
  std::vector<std::vector<double>> results;
  for (int run = 0; run < 2; ++run) {
    DrnnConfig mc;
    mc.input_size = 3;
    mc.hidden_size = 6;
    mc.num_layers = 1;
    mc.seed = 3;
    Drnn model(mc);
    TrainConfig tc;
    tc.epochs = 2;
    tc.batch_size = 8;
    tc.validation_fraction = 0.0;
    tc.seed = 11;
    Trainer trainer(tc);
    trainer.fit(model, data);
    results.push_back(flat_weights(model));
  }
  for (std::size_t i = 0; i < results[0].size(); ++i) {
    ASSERT_EQ(results[0][i], results[1][i]);
  }
}

TEST(ComputePath, SteadyStateTrainStepAllocatesNothing) {
  // Dropout included: its mask workspaces must be warm too.
  DrnnConfig mc;
  mc.input_size = 6;
  mc.hidden_size = 16;
  mc.num_layers = 2;
  mc.dropout = 0.1;
  mc.seed = 29;
  Drnn model(mc);

  SequenceDataset data = make_dataset(32, 8, 6, 31);
  TrainConfig tc;
  tc.batch_size = 16;
  tc.validation_fraction = 0.0;
  Trainer trainer(tc);
  std::vector<std::size_t> idx(16);
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;

  // Warm-up: grows every workspace to steady-state capacity and creates the
  // optimizer state.
  for (int i = 0; i < 3; ++i) trainer.train_step(model, data, idx);

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  for (int i = 0; i < 5; ++i) trainer.train_step(model, data, idx);
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0)
      << "steady-state training must not touch the heap";
}

TEST(ComputePath, SteadyStateBatchedPredictAllocatesNothing) {
  // A control round forwards all of an edge's workers as one batch, and a
  // lone predict_next is a batch of one; alternating the two must stay off
  // the heap once the workspaces are warm. Dropout is identity here.
  DrnnConfig mc;
  mc.input_size = 5;
  mc.hidden_size = 16;
  mc.num_layers = 2;
  mc.dropout = 0.1;
  mc.seed = 23;
  Drnn model(mc);
  common::Pcg32 rng(8, 0x3);
  const SeqBatch round = random_seq(12, 4, 5, rng);
  const SeqBatch one = random_seq(12, 1, 5, rng);

  for (int i = 0; i < 3; ++i) {  // warm-up
    model.forward(round, /*training=*/false);
    model.forward(one, /*training=*/false);
  }

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  for (int i = 0; i < 10; ++i) {
    model.forward(round, /*training=*/false);
    model.forward(one, /*training=*/false);
  }
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0)
      << "steady-state inference must not touch the heap";
}

}  // namespace
}  // namespace repro::nn

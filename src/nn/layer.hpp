#pragma once
// Layer interfaces for the DRNN stack.
//
// A sequence batch is a vector of T matrices, each [batch x features]:
// timestep-major layout keeps the recurrent kernels simple and cache-local.
//
// The compute path is workspace-based: `forward_into` / `backward_into`
// write into caller-owned buffers and every layer keeps its BPTT caches in
// pre-sized member workspaces, so steady-state training (same T and batch
// shape step over step) performs no heap allocations. The allocating
// `forward` / `backward` wrappers remain for tests and one-off callers.
#include <string>
#include <vector>

#include "tensor/matrix.hpp"

namespace repro::nn {

using SeqBatch = std::vector<tensor::Matrix>;  ///< length T, each [B x D]

/// Resize a sequence workspace to t matrices of [rows x cols]; allocation
/// free once the buffers have grown to their steady-state capacity.
inline void reshape_seq(SeqBatch& s, std::size_t t, std::size_t rows, std::size_t cols) {
  if (s.size() != t) s.resize(t);
  for (std::size_t i = 0; i < t; ++i) s[i].reshape(rows, cols);
}

/// A trainable parameter and its gradient accumulator.
struct ParamRef {
  std::string name;
  tensor::Matrix* value = nullptr;
  tensor::Matrix* grad = nullptr;
};

/// Sequence-to-sequence layer (recurrent layers and per-step transforms).
class SequenceLayer {
 public:
  virtual ~SequenceLayer() = default;

  /// Forward a full sequence batch into `out` (reshaped by the layer);
  /// caches activations for backward when `training` is set. `out` must not
  /// alias `inputs`.
  virtual void forward_into(const SeqBatch& inputs, SeqBatch& out, bool training) = 0;

  /// Backward a full sequence of output grads: accumulates into parameter
  /// gradients and, when `input_grads` is non-null, writes the input grads
  /// there. Null skips that work (the bottom layer of a stack, whose input
  /// grads nobody reads); the parameter gradients are the same either way.
  /// `*input_grads` must not alias `output_grads`.
  virtual void backward_into(const SeqBatch& output_grads, SeqBatch* input_grads) = 0;

  /// Allocating wrappers (tests / one-off callers).
  SeqBatch forward(const SeqBatch& inputs, bool training) {
    SeqBatch out;
    forward_into(inputs, out, training);
    return out;
  }
  SeqBatch backward(const SeqBatch& output_grads) {
    SeqBatch grads;
    backward_into(output_grads, &grads);
    return grads;
  }

  /// Cached parameter list (built once; stable for the layer's lifetime).
  virtual const std::vector<ParamRef>& param_refs() = 0;
  /// Compatibility copy of param_refs().
  std::vector<ParamRef> params() { return param_refs(); }
  virtual void zero_grads();

  virtual std::size_t input_size() const = 0;
  virtual std::size_t output_size() const = 0;
  virtual std::string kind() const = 0;
};

inline void SequenceLayer::zero_grads() {
  for (auto& p : param_refs()) p.grad->fill(0.0);
}

}  // namespace repro::nn

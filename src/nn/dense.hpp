#pragma once
// Fully connected layer applied per timestep (or to a single matrix).
//
// Forward caches (x, y) pairs live in a reused LIFO ring so repeated
// training steps with stable shapes allocate nothing; the transposed weight
// matrix is cached per backward call so input grads use the fast
// unit-stride matmul kernel.
#include "nn/activations.hpp"
#include "nn/layer.hpp"

namespace repro::nn {

class Dense : public SequenceLayer {
 public:
  Dense(std::size_t in, std::size_t out, Activation act, common::Pcg32& rng);

  /// Single-matrix forward ([B x in] -> [B x out]) into a caller buffer.
  void forward_matrix_into(const tensor::Matrix& x, tensor::Matrix& out, bool training);
  /// Single-matrix backward into a caller buffer: pops the matching cached
  /// forward (LIFO).
  void backward_matrix_into(const tensor::Matrix& dy, tensor::Matrix& dx);

  /// Allocating wrappers.
  tensor::Matrix forward_matrix(const tensor::Matrix& x, bool training) {
    tensor::Matrix out;
    forward_matrix_into(x, out, training);
    return out;
  }
  tensor::Matrix backward_matrix(const tensor::Matrix& dy) {
    tensor::Matrix dx;
    backward_matrix_into(dy, dx);
    return dx;
  }

  void forward_into(const SeqBatch& inputs, SeqBatch& out, bool training) override;
  void backward_into(const SeqBatch& output_grads, SeqBatch* input_grads) override;

  const std::vector<ParamRef>& param_refs() override { return param_refs_; }
  std::size_t input_size() const override { return w_.rows(); }
  std::size_t output_size() const override { return w_.cols(); }
  std::string kind() const override { return "dense"; }

  Activation activation() const { return act_; }
  tensor::Matrix& weights() { return w_; }
  tensor::Matrix& bias() { return b_; }

 private:
  tensor::Matrix w_, b_;
  tensor::Matrix dw_, db_;
  Activation act_;
  std::vector<ParamRef> param_refs_;
  // LIFO cache ring matching forward calls within one training step;
  // `cache_depth_` is the live count, buffers beyond it are kept warm.
  std::vector<tensor::Matrix> cached_x_;
  std::vector<tensor::Matrix> cached_y_;
  std::size_t cache_depth_ = 0;
  // Reused workspaces.
  tensor::Matrix dz_ws_, wT_ws_, dw_scratch_, db_scratch_;
  tensor::Matrix dx_unread_ws_;  ///< input grads of a backward_into(.., nullptr)
};

}  // namespace repro::nn

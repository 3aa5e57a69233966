#pragma once
// The paper's DRNN performance-prediction model: a stack of recurrent
// layers (LSTM or GRU) with inter-layer dropout and a dense head applied
// to the final timestep's hidden state.
//
// The compute path is workspace-based: layer activations ping-pong between
// two member SeqBatch buffers and the head output is a member matrix, so
// steady-state training and inference perform no per-step heap allocations.
// Inference has one path, `forward(inputs, false)`: a batch of W sequences
// is one pass whose GEMMs load each weight once for all W rows, and every
// output row is bit-identical to that sequence forwarded alone (each row's
// sums never mix with another row's).
#include <memory>
#include <string>
#include <vector>

#include "nn/dense.hpp"
#include "nn/dropout.hpp"
#include "nn/gru.hpp"
#include "nn/layer.hpp"
#include "nn/lstm.hpp"

namespace repro::nn {

enum class CellKind { kLstm, kGru };

const char* cell_name(CellKind kind);
CellKind cell_from_name(const std::string& name);

struct DrnnConfig {
  std::size_t input_size = 1;
  std::size_t hidden_size = 32;
  std::size_t num_layers = 2;
  CellKind cell = CellKind::kLstm;
  double dropout = 0.0;           ///< applied between recurrent layers
  std::size_t output_size = 1;
  Activation output_activation = Activation::kIdentity;
  std::uint64_t seed = 1;
};

class Drnn {
 public:
  explicit Drnn(const DrnnConfig& config);

  /// Forward a sequence batch; returns [B x output_size] (last-step head).
  /// The returned reference is owned by the model and valid until the next
  /// forward/predict call.
  const tensor::Matrix& forward(const SeqBatch& inputs, bool training);

  /// Backward from dL/doutput; accumulates parameter gradients. The bottom
  /// layer's input grads are never read, so they are not computed.
  void backward(const tensor::Matrix& d_output);

  /// Convenience: predict for a single sequence given as [T x input_size]
  /// (a batch of one through `forward`).
  std::vector<double> predict(const tensor::Matrix& sequence);

  /// Cached parameter list (stable for the model's lifetime).
  const std::vector<ParamRef>& param_refs() { return param_refs_; }
  /// Compatibility copy of param_refs().
  std::vector<ParamRef> params() { return param_refs_; }
  void zero_grads();
  std::size_t parameter_count();

  const DrnnConfig& config() const { return config_; }
  const std::vector<std::unique_ptr<SequenceLayer>>& recurrent_layers() const { return stack_; }
  Dense& head() { return *head_; }

 private:
  DrnnConfig config_;
  std::vector<std::unique_ptr<SequenceLayer>> stack_;  ///< recurrent + dropout layers
  std::unique_ptr<Dense> head_;
  std::vector<ParamRef> param_refs_;
  std::size_t last_seq_len_ = 0;
  std::size_t last_batch_ = 0;

  // Reused workspaces.
  SeqBatch seq_a_, seq_b_;      ///< forward activation ping-pong
  SeqBatch grads_a_, grads_b_;  ///< backward gradient ping-pong
  tensor::Matrix head_out_;
  tensor::Matrix dhead_ws_;
  SeqBatch predict_ws_;  ///< predict()'s batch of one
};

}  // namespace repro::nn

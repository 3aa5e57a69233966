#pragma once
// LSTM layer with full backpropagation-through-time.
//
// Gate layout in the fused weight matrices: [input | forget | cell | output],
// i.e. Wx is [in x 4H], Wh is [H x 4H], bias is [1 x 4H]. Gate
// pre-activations live in one [B x 4H] matrix per timestep (activated in
// place), so the gate kernels are flat unit-stride loops and the BPTT caches
// are reused workspaces: steady-state training allocates nothing.
#include "nn/layer.hpp"

namespace repro::nn {

class Lstm : public SequenceLayer {
 public:
  Lstm(std::size_t in, std::size_t hidden, common::Pcg32& rng, double forget_bias = 1.0);

  void forward_into(const SeqBatch& inputs, SeqBatch& out, bool training) override;
  void backward_into(const SeqBatch& output_grads, SeqBatch* input_grads) override;

  const std::vector<ParamRef>& param_refs() override { return param_refs_; }
  std::size_t input_size() const override { return in_; }
  std::size_t output_size() const override { return hidden_; }
  std::string kind() const override { return "lstm"; }

  tensor::Matrix& wx() { return wx_; }
  tensor::Matrix& wh() { return wh_; }
  tensor::Matrix& bias() { return b_; }

 private:
  std::size_t in_, hidden_;
  tensor::Matrix wx_, wh_, b_;
  tensor::Matrix dwx_, dwh_, db_;
  std::vector<ParamRef> param_refs_;

  // Caches for BPTT (valid between one training forward and its backward).
  SeqBatch cache_x_;
  SeqBatch cache_gates_;   ///< activated gates [i|f|g|o], each [B x 4H]
  SeqBatch cache_c_;       ///< cell states c_t
  SeqBatch cache_tanh_c_;  ///< tanh(c_t)
  SeqBatch cache_h_prev_;  ///< h_{t-1} (h_{-1} = 0)

  // Reused workspaces (forward inference, backward).
  tensor::Matrix zero_state_;            ///< all-zero [B x H] initial state
  tensor::Matrix z_ws_, c_a_, c_b_;      ///< inference scratch
  tensor::Matrix dz_ws_, dc_prev_ws_, dc_next_ws_, dh_next_ws_;
  tensor::Matrix wxT_ws_, whT_ws_;       ///< transposed weights (refreshed per backward)
  tensor::Matrix dwx_scratch_, dwh_scratch_, db_scratch_;
};

}  // namespace repro::nn

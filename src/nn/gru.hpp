#pragma once
// GRU layer with full backpropagation-through-time.
//
// Update/reset gates use fused matrices ([z | r] blocks of width H each);
// the candidate state n has its own matrices because the reset gate is
// applied to h_{t-1} *before* the recurrent matmul. Gate pre-activations for
// [z | r] live in one [B x 2H] matrix per timestep (activated in place) and
// all BPTT caches are reused workspaces: steady-state training allocates
// nothing.
#include "nn/layer.hpp"

namespace repro::nn {

class Gru : public SequenceLayer {
 public:
  Gru(std::size_t in, std::size_t hidden, common::Pcg32& rng);

  void forward_into(const SeqBatch& inputs, SeqBatch& out, bool training) override;
  void backward_into(const SeqBatch& output_grads, SeqBatch* input_grads) override;

  const std::vector<ParamRef>& param_refs() override { return param_refs_; }
  std::size_t input_size() const override { return in_; }
  std::size_t output_size() const override { return hidden_; }
  std::string kind() const override { return "gru"; }

 private:
  std::size_t in_, hidden_;
  tensor::Matrix wx_zr_, wh_zr_, b_zr_;  ///< [in x 2H], [H x 2H], [1 x 2H]
  tensor::Matrix wx_n_, wh_n_, b_n_;     ///< [in x H],  [H x H],  [1 x H]
  tensor::Matrix dwx_zr_, dwh_zr_, db_zr_;
  tensor::Matrix dwx_n_, dwh_n_, db_n_;
  std::vector<ParamRef> param_refs_;

  // BPTT caches (valid between one training forward and its backward).
  SeqBatch cache_x_;
  SeqBatch cache_zr_;  ///< activated [z | r] gates, each [B x 2H]
  SeqBatch cache_n_, cache_h_prev_, cache_rh_;

  // Reused workspaces.
  tensor::Matrix zero_state_;
  tensor::Matrix zr_ws_, n_ws_, rh_ws_;  ///< inference scratch
  tensor::Matrix dn_pre_ws_, dzr_pre_ws_, dh_prev_ws_, dh_next_ws_, drh_ws_;
  tensor::Matrix wxT_zr_ws_, whT_zr_ws_, wxT_n_ws_, whT_n_ws_;
  tensor::Matrix dwx_scratch_, dwh_scratch_, db_scratch_;
};

}  // namespace repro::nn

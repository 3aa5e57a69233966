#pragma once
// Inverted dropout applied between stacked recurrent layers.
//
// Mask buffers are reused workspaces; the Bernoulli draws happen in flat
// row-major order per timestep, which pins the rng stream (and therefore
// the masks) regardless of how the surrounding compute path is organised.
#include "nn/layer.hpp"

namespace repro::nn {

class Dropout : public SequenceLayer {
 public:
  Dropout(std::size_t width, double rate, std::uint64_t seed);

  void forward_into(const SeqBatch& inputs, SeqBatch& out, bool training) override;
  void backward_into(const SeqBatch& output_grads, SeqBatch* input_grads) override;

  const std::vector<ParamRef>& param_refs() override { return param_refs_; }
  std::size_t input_size() const override { return width_; }
  std::size_t output_size() const override { return width_; }
  std::string kind() const override { return "dropout"; }

  double rate() const { return rate_; }

 private:
  std::size_t width_;
  double rate_;
  common::Pcg32 rng_;
  std::vector<ParamRef> param_refs_;  ///< always empty
  SeqBatch masks_;
  std::size_t masks_live_ = 0;  ///< masks valid for the pending backward
};

}  // namespace repro::nn

#pragma once
// Converts engine window history into supervised learning datasets for the
// DRNN (sequence -> `outputs` targets) and the SVR baseline (flattened lags
// -> one target).
#include <vector>

#include "control/features.hpp"
#include "tensor/matrix.hpp"

namespace repro::nn {
struct SequenceDataset;  // nn/trainer.hpp; kept out so predictor.hpp stays light
}  // namespace repro::nn

namespace repro::control {

struct DatasetConfig {
  std::size_t seq_len = 16;  ///< input window count (DRNN) / lags (SVR)
  std::size_t horizon = 1;   ///< predict this many windows ahead
  std::size_t outputs = 1;   ///< consecutive windows forecast from `horizon` on (DRNN)
  FeatureConfig features{};
};

/// DRNN dataset over one worker: sample i is the feature sequence of
/// windows [i, i+seq_len) with targets j < outputs = that worker's avg
/// processing time at window i+seq_len+horizon-1+j.
nn::SequenceDataset make_drnn_dataset(const std::vector<dsps::WindowSample>& history,
                                      std::size_t worker, const DatasetConfig& cfg);

/// Pooled DRNN dataset over several workers (one shared model, more data).
/// Samples are interleaved by window so a temporal train/val split stays
/// chronologically sound.
nn::SequenceDataset make_pooled_drnn_dataset(const std::vector<dsps::WindowSample>& history,
                                             const std::vector<std::size_t>& workers,
                                             const DatasetConfig& cfg);

/// Flat dataset (SVR): row i concatenates the seq_len feature vectors and
/// has one target (`outputs` is not read).
struct FlatDataset {
  tensor::Matrix x;
  std::vector<double> y;
};
FlatDataset make_flat_dataset(const std::vector<dsps::WindowSample>& history, std::size_t worker,
                              const DatasetConfig& cfg);
FlatDataset make_pooled_flat_dataset(const std::vector<dsps::WindowSample>& history,
                                     const std::vector<std::size_t>& workers,
                                     const DatasetConfig& cfg);

/// The most recent feature sequence ([seq_len x D]) for live prediction.
tensor::Matrix latest_sequence(const std::vector<dsps::WindowSample>& history, std::size_t worker,
                               const DatasetConfig& cfg);

}  // namespace repro::control

#pragma once
// Mini-batch BPTT trainer: Adam on the MSE loss, shuffled minibatches,
// gradient clipping, and early stopping that restores the best epoch's
// weights.
//
// The training loop is allocation-free in steady state: minibatches are
// gathered into reused timestep-major workspaces, the loss gradient and
// best-weights snapshot live in member buffers, and train/validation
// splits are index ranges over the caller's dataset (never copies).
#include <cstdint>
#include <memory>
#include <vector>

#include "nn/drnn.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"

namespace repro::nn {

/// Supervised sequence-regression dataset: sequences[i] is [T x D]
/// (all sequences the same length), targets[i] is [output_size].
struct SequenceDataset {
  std::vector<tensor::Matrix> sequences;
  std::vector<std::vector<double>> targets;

  std::size_t size() const { return sequences.size(); }
  void append(tensor::Matrix seq, std::vector<double> target);
};

struct TrainConfig {
  std::size_t epochs = 40;
  std::size_t batch_size = 64;
  double learning_rate = 1e-2;
  double grad_clip = 5.0;
  double validation_fraction = 0.15;  ///< tail of the training set
  std::size_t patience = 6;           ///< early-stop after this many non-improving epochs
  std::uint64_t seed = 1234;
};

struct TrainReport {
  std::vector<double> train_losses;  ///< per epoch
  std::vector<double> val_losses;    ///< per epoch (empty when no val split)
  std::size_t best_epoch = 0;
  double best_val_loss = 0.0;
  std::size_t epochs_run = 0;
};

/// Gather dataset rows into a timestep-major SeqBatch / target matrix,
/// reusing `out` (no allocations once shapes are warm).
void gather_batch_into(const SequenceDataset& data, const std::vector<std::size_t>& idx,
                       SeqBatch& out);
void gather_targets_into(const SequenceDataset& data, const std::vector<std::size_t>& idx,
                         tensor::Matrix& out);

class Trainer {
 public:
  explicit Trainer(TrainConfig config) : config_(config) {}

  /// Train on `data`, holding out its last validation_fraction rows (when
  /// it has at least 10) for early stopping; the model ends with the
  /// weights of the epoch with the lowest validation loss.
  TrainReport fit(Drnn& model, const SequenceDataset& data);

  /// Mean loss over a dataset without updating weights.
  double evaluate(Drnn& model, const SequenceDataset& data) const;

  /// One forward/backward/clip/optimizer-step over the dataset rows `idx`.
  /// Returns the minibatch mean loss. The optimizer persists across calls
  /// (reset by each fit()); steady-state calls perform no heap allocations.
  double train_step(Drnn& model, const SequenceDataset& data,
                    const std::vector<std::size_t>& idx);

  const TrainConfig& config() const { return config_; }

 private:
  double evaluate_range(Drnn& model, const SequenceDataset& data, std::size_t lo,
                        std::size_t hi) const;
  void snapshot_into(Drnn& model, std::vector<tensor::Matrix>& snap) const;
  void restore_from(Drnn& model, const std::vector<tensor::Matrix>& snap) const;

  TrainConfig config_;
  std::unique_ptr<Adam> optimizer_;

  // Reused workspaces (mutable: evaluate() is logically const).
  mutable SeqBatch batch_ws_;
  mutable tensor::Matrix y_ws_;
  mutable LossResult loss_ws_;
  mutable std::vector<std::size_t> idx_ws_;
};

}  // namespace repro::nn

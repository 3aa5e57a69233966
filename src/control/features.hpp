#pragma once
// Multilevel feature extraction: turns the engine's per-window samples into
// the DRNN input vectors. The distinguishing design point from the paper is
// the *interference block*: statistics of worker processes co-located on
// the same machine, which let the model anticipate slowdowns caused by
// neighbors rather than by the worker's own load.
#include <string>
#include <vector>

#include "dsps/metrics.hpp"
#include "tensor/matrix.hpp"

namespace repro::control {

struct FeatureConfig {
  /// Include co-located-worker statistics (the interference block).
  bool include_colocated = true;
  /// How many co-located workers to encode (sorted by cpu share, padded
  /// with zeros when fewer exist).
  std::size_t max_colocated = 3;
};

/// Number of features produced per (window, worker).
std::size_t feature_dim(const FeatureConfig& cfg);

/// Human-readable names, index-aligned with worker_features output.
std::vector<std::string> feature_names(const FeatureConfig& cfg);

/// Feature vector for `worker` in one window sample.
std::vector<double> worker_features(const dsps::WindowSample& sample, std::size_t worker,
                                    const FeatureConfig& cfg);

/// Workspace variant: writes the same vector into out[0, feature_dim(cfg))
/// without allocating — the streaming extractors' per-window hot path.
void worker_features_into(const dsps::WindowSample& sample, std::size_t worker,
                          const FeatureConfig& cfg, double* out);

/// Prediction target: the worker's mean tuple processing time next window.
double worker_target(const dsps::WindowSample& sample, std::size_t worker);

/// Target series for a worker over a span of history.
std::vector<double> target_series(const std::vector<dsps::WindowSample>& history,
                                  std::size_t worker);

/// Rolling per-worker feature windows maintained incrementally: feed each
/// WindowSample once through observe() and the extractor keeps, for every
/// worker it has seen, the most recent `capacity` feature rows in fixed
/// flat rings. Reading the latest length-L sequence is then a
/// bounded copy — a control round costs O(workers x window) no matter how
/// long the run is, and rows are bit-identical to worker_features() on the
/// same samples.
class StreamingFeatureExtractor {
 public:
  /// `capacity` is the per-worker row retention (> 0), typically the
  /// predictor's seq_len or fit tail.
  StreamingFeatureExtractor(FeatureConfig cfg, std::size_t capacity);

  /// Extract and retain features for every worker in the sample.
  void observe(const dsps::WindowSample& sample);

  std::size_t dim() const { return dim_; }
  std::size_t capacity() const { return capacity_; }
  /// Samples fed through observe() so far.
  std::size_t windows_seen() const { return windows_seen_; }
  /// Retained rows for `worker` (0 for workers never seen).
  std::size_t rows_of(std::size_t worker) const;

  /// The worker's latest `len` feature rows, oldest first, into `out`
  /// ([len x dim], reshaped in place). Throws std::invalid_argument when
  /// fewer than `len` rows are retained.
  void sequence_into(std::size_t worker, std::size_t len, tensor::Matrix& out) const;

  /// Forget everything (capacity and config stay).
  void reset();

 private:
  struct WorkerRing {
    std::vector<double> rows;  ///< capacity x dim, flat
    std::size_t head = 0;      ///< next write slot
    std::size_t count = 0;     ///< retained rows, saturates at capacity
  };

  const WorkerRing& ring_of(std::size_t worker) const;

  FeatureConfig cfg_;
  std::size_t dim_;
  std::size_t capacity_;
  std::size_t windows_seen_ = 0;
  std::vector<WorkerRing> rings_;  ///< indexed by worker id, grown lazily
};

}  // namespace repro::control

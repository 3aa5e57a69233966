#pragma once
// Common interface for per-worker performance prediction: forecast each
// worker's mean tuple processing time `horizon` windows ahead from the
// window samples streamed into the predictor. Implementations: DRNN (the
// paper's model), ARIMA and SVR (the paper's baselines), plus trivial
// references.
//
// Usage: fit() on a history trace, then feed each new WindowSample once via
// observe() and ask predict_next(worker), or predict_workers() for a whole
// control round. The base class keeps a bounded rolling window of at least
// stream_window() samples (recent_samples()), so a round costs
// O(workers x window) regardless of run length. Implementations that keep
// their own incremental feature state override observe() and the stream
// accessors.
#include <memory>
#include <string>
#include <vector>

#include "control/dataset.hpp"
#include "dsps/metrics.hpp"
#include "runtime/window_history.hpp"

namespace repro::control {

class PerformancePredictor {
 public:
  virtual ~PerformancePredictor() = default;

  /// Train/refresh the model from a history trace, pooling `workers`.
  virtual void fit(const std::vector<dsps::WindowSample>& history,
                   const std::vector<std::size_t>& workers) = 0;

  /// Predict `worker`'s avg processing time from the samples fed through
  /// observe(). Requires fit() first (except memoryless predictors) and at
  /// least min_history() observed windows.
  virtual double predict_next(std::size_t worker) = 0;

  /// Minimum observed windows predict_next needs.
  virtual std::size_t min_history() const = 0;

  virtual std::string name() const = 0;

  /// Ingest one new window sample (call once per window, oldest first).
  /// Default: append to the rolling window behind recent_samples().
  virtual void observe(const dsps::WindowSample& sample);

  /// Predict every worker of `workers`, in order and repeats included, into
  /// `out` (resized to workers.size()): out[i] is exactly
  /// predict_next(workers[i]). A control round makes one such call, so a
  /// model can answer the whole round in one inference pass. Default:
  /// predict_next(worker) for each entry.
  virtual void predict_workers(const std::vector<std::size_t>& workers, std::vector<double>& out);

  /// How many most-recent samples predict_next reads: a predictor fed only
  /// its last stream_window() windows predicts exactly as one fed them all.
  /// Defaults to max(min_history(), 256).
  virtual std::size_t stream_window() const;

  /// Total samples fed through observe() so far (monotonic; unaffected by
  /// the rolling window's eviction).
  virtual std::size_t observed_windows() const { return recent_.total(); }

  /// Drop all streamed state (e.g. when re-attaching to a new run).
  virtual void reset_stream();

 protected:
  /// Rolling window of observed samples, oldest first: at least the last
  /// stream_window() of them.
  const std::vector<dsps::WindowSample>& recent_samples() const { return recent_.samples(); }

 private:
  runtime::WindowHistory recent_;
};

/// Factory by name: "drnn" (alias "drnn-lstm"), "drnn-gru", "arima",
/// "svr", "hw", "observed", "ma". Returns predictors with
/// experiment-default hyperparameters. ARIMA and Holt-Winters forecast
/// `dataset.horizon` windows ahead; SVR and the DRNN take `dataset` whole;
/// the last-value and moving-average references ignore it.
std::unique_ptr<PerformancePredictor> make_predictor(const std::string& name,
                                                     std::uint64_t seed = 7,
                                                     DatasetConfig dataset = {});

/// Every name make_predictor accepts, in documentation order — the
/// factory's round-trip surface (tests iterate this).
const std::vector<std::string>& predictor_names();

}  // namespace repro::control

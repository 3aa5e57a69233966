#pragma once
// Common interface for per-worker performance prediction: given the
// engine's window history, forecast each worker's mean tuple processing
// time `horizon` windows ahead. Implementations: DRNN (the paper's model),
// ARIMA and SVR (the paper's baselines), plus trivial references.
//
// Two usage styles share the interface:
//  - Legacy batch: call predict_next(history, worker) with a history
//    vector each round. Simple, but the caller re-hands the whole trace.
//  - Streaming: feed each new WindowSample once via observe(), then ask
//    predict_next(worker). The base class keeps a bounded rolling window
//    (stream_window() samples) and adapts legacy predictors
//    automatically, so a control round costs O(workers x window)
//    regardless of run length. Implementations can override observe()/
//    predict_next(worker) for fully incremental feature state.
#include <memory>
#include <string>
#include <vector>

#include "dsps/metrics.hpp"
#include "runtime/window_history.hpp"

namespace repro::control {

class PerformancePredictor {
 public:
  virtual ~PerformancePredictor() = default;

  /// Train/refresh the model from a history trace, pooling `workers`.
  virtual void fit(const std::vector<dsps::WindowSample>& history,
                   const std::vector<std::size_t>& workers) = 0;

  /// Predict `worker`'s next-window avg processing time from the most
  /// recent history. Requires fit() first (except memoryless predictors).
  virtual double predict_next(const std::vector<dsps::WindowSample>& history,
                              std::size_t worker) = 0;

  /// Minimum history length predict_next needs.
  virtual std::size_t min_history() const = 0;

  virtual std::string name() const = 0;

  // --- streaming contract ---------------------------------------------
  /// Ingest one new window sample (call once per window, oldest first).
  /// Default: append to an internal rolling window of stream_window()
  /// samples, which feeds the legacy predict path.
  virtual void observe(const dsps::WindowSample& sample);

  /// Predict `worker`'s next-window avg processing time from the samples
  /// fed through observe(). Default: legacy predict_next over the rolling
  /// window — numerically identical to the batch call on the same tail.
  virtual double predict_next(std::size_t worker);

  /// Predict every worker of `workers`, in order and repeats included, into
  /// `out` (resized to workers.size()): out[i] is exactly
  /// predict_next(workers[i]). A control round makes one such call, so a
  /// model can answer the whole round in one inference pass. Default:
  /// predict_next(worker) for each entry.
  virtual void predict_workers(const std::vector<std::size_t>& workers, std::vector<double>& out);

  /// How many most-recent samples the streaming path retains — enough for
  /// predict_next(worker) and for tail refits. Defaults to
  /// max(min_history(), 256).
  virtual std::size_t stream_window() const;

  /// Total samples fed through observe() so far (monotonic; unaffected by
  /// the rolling window's eviction).
  virtual std::size_t observed_windows() const { return recent_.total(); }

  /// Drop all streamed state (e.g. when re-attaching to a new run).
  virtual void reset_stream();

 protected:
  /// Rolling window behind the default streaming implementation.
  const std::vector<dsps::WindowSample>& recent_samples() const { return recent_.samples(); }

 private:
  runtime::WindowHistory recent_;
};

/// Factory by name: "drnn" (alias "drnn-lstm"), "drnn-gru", "arima",
/// "svr", "hw", "observed", "ma". Returns predictors with
/// experiment-default hyperparameters.
std::unique_ptr<PerformancePredictor> make_predictor(const std::string& name,
                                                     std::uint64_t seed = 7);

/// Every name make_predictor accepts, in documentation order — the
/// factory's round-trip surface (tests iterate this).
const std::vector<std::string>& predictor_names();

}  // namespace repro::control

#pragma once
// Per-window counter accumulation shared by both engines: tasks, workers
// and the topology accumulate raw counters during a window; at the sample
// boundary the finalizers below fold them into the multilevel
// dsps::WindowSample statistics (the DRNN's input) and reset them.
//
// The arithmetic here is the historical dsps::Engine arithmetic verbatim —
// the discrete-event engine's output must stay bit-identical across the
// runtime-core refactor.
#include <cstdint>
#include <vector>

#include "dsps/metrics.hpp"

namespace repro::runtime {

/// Raw per-task counters for the current window.
struct TaskCounters {
  std::uint64_t executed = 0;
  std::uint64_t emitted = 0;
  std::uint64_t received = 0;
  std::uint64_t dropped = 0;
  std::uint64_t dropped_overflow = 0;  ///< shed at the task's full in-queue
  double exec_time = 0.0;   ///< summed service durations (seconds)
  double queue_wait = 0.0;  ///< summed time queued before service
  double bp_stall = 0.0;    ///< emit-side backpressure stall (seconds)

  void reset() { *this = TaskCounters{}; }
};

/// Raw per-worker counters for the current window.
struct WorkerCounters {
  double service_seconds = 0.0;  ///< busy time (drives cpu_share)
  double gc_pause = 0.0;
  std::uint64_t executed = 0;
  std::uint64_t emitted = 0;
  std::uint64_t received = 0;
  double exec_time_sum = 0.0;
  double queue_wait_sum = 0.0;
  double bp_stall = 0.0;  ///< summed over hosted executors

  void reset() { *this = WorkerCounters{}; }
};

/// Raw topology-level counters for the current window.
struct TopologyCounters {
  std::uint64_t roots_emitted = 0;
  std::uint64_t acked = 0;
  std::uint64_t failed = 0;
  std::uint64_t dropped_overflow = 0;  ///< summed over tasks this window
  double latency_sum = 0.0;
  std::vector<double> latencies;  ///< per acked root, for the p99

  void reset() {
    roots_emitted = acked = failed = dropped_overflow = 0;
    latency_sum = 0.0;
    latencies.clear();
  }
};

/// Fold one task's window counters into stats and reset them.
/// `queue_len` is the instantaneous queue length at the boundary
/// (including any tuple in service).
dsps::TaskWindowStats finalize_task_window(std::size_t task, const std::string& component,
                                           std::size_t comp_index, std::size_t worker,
                                           TaskCounters& c, std::size_t queue_len);

/// Fold one worker's window counters into stats and reset them.
/// `queue_len` is the sum over the worker's hosted executors.
dsps::WorkerWindowStats finalize_worker_window(std::size_t worker, std::size_t machine,
                                               std::size_t executors, WorkerCounters& c,
                                               std::size_t queue_len, double window_seconds);

/// Fold the topology window counters into stats and reset them.
/// `pending` is the number of in-flight roots at the boundary. Note:
/// reorders (and then clears) `c.latencies` to select the p99.
dsps::TopologyWindowStats finalize_topology_window(TopologyCounters& c, double window_seconds,
                                                   std::uint64_t pending);

}  // namespace repro::runtime

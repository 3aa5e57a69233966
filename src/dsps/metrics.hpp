#pragma once
// Multilevel runtime statistics (the DRNN's input): task-, worker-,
// machine-, and topology-level samples collected at every window boundary.
#include <cstdint>
#include <string>
#include <vector>

#include "sim/clock.hpp"

namespace repro::dsps {

struct TaskWindowStats {
  std::size_t task = 0;  ///< global task id
  std::string component;
  std::size_t comp_index = 0;
  std::size_t worker = 0;
  std::uint64_t executed = 0;
  std::uint64_t emitted = 0;
  std::uint64_t received = 0;
  std::uint64_t dropped = 0;
  /// Tuples shed at this task's full in-queue (kDropNewest overflow).
  std::uint64_t dropped_overflow = 0;
  double avg_exec_latency = 0.0;  ///< mean service duration (seconds)
  double avg_queue_wait = 0.0;    ///< mean time queued before service
  std::size_t queue_len = 0;      ///< instantaneous, at the sample boundary
  /// Seconds this task's emits spent stalled on downstream backpressure
  /// (kBlockUpstream) during the window.
  double bp_stall = 0.0;
};

struct WorkerWindowStats {
  std::size_t worker = 0;
  std::size_t machine = 0;
  std::size_t executors = 0;
  std::uint64_t executed = 0;
  std::uint64_t emitted = 0;
  std::uint64_t received = 0;
  /// Mean tuple processing time at this worker — the paper's prediction
  /// target.
  double avg_proc_time = 0.0;
  double avg_queue_wait = 0.0;
  std::size_t queue_len = 0;       ///< sum over hosted executors
  double cpu_share = 0.0;          ///< busy service-seconds / window
  double gc_pause = 0.0;           ///< seconds spent GC-paused this window
  double mem_mb = 0.0;             ///< synthetic resident-memory estimate
  /// Backpressure-stall seconds summed over the worker's hosted executors
  /// this window (time their emits waited for downstream credit).
  double bp_stall = 0.0;
};

struct MachineWindowStats {
  std::size_t machine = 0;
  double cpu_util = 0.0;  ///< in [0, 1]
  double load = 0.0;      ///< runnable load at the sample boundary (incl. hogs)
};

struct TopologyWindowStats {
  std::uint64_t roots_emitted = 0;
  std::uint64_t acked = 0;
  std::uint64_t failed = 0;
  /// Tuples shed by queue-overflow (kDropNewest) across all tasks this
  /// window.
  std::uint64_t dropped_overflow = 0;
  std::uint64_t pending = 0;           ///< in-flight roots at the boundary
  double throughput = 0.0;             ///< acked per second
  double avg_complete_latency = 0.0;   ///< seconds, root emit -> tree done
  double p99_complete_latency = 0.0;
};

/// Scheduler observability (async backend; the simulator leaves it
/// zeroed). Counter fields are deltas over the window; ready_depth is
/// sampled at the window boundary and ready_peak is the lifetime peak.
/// A "wakeup" is a loop thread waking from its eventcount wait
/// (productive = it found work, spurious = it went back to sleep).
struct SchedulerWindowStats {
  std::uint64_t wakeups_productive = 0;
  std::uint64_t wakeups_spurious = 0;
  std::uint64_t steals = 0;    ///< tasks taken from another thread's run queue
  std::uint64_t suspends = 0;  ///< tasks suspended on backpressure (kBlockUpstream)
  std::uint64_t resumes = 0;   ///< suspended tasks re-queued on credit release
  std::size_t ready_depth = 0;
  std::size_t ready_peak = 0;
};

struct WindowSample {
  sim::SimTime time = 0.0;   ///< end of window
  double window = 1.0;       ///< length (seconds)
  std::vector<TaskWindowStats> tasks;
  std::vector<WorkerWindowStats> workers;
  std::vector<MachineWindowStats> machines;
  TopologyWindowStats topology;
  SchedulerWindowStats scheduler;
};

}  // namespace repro::dsps

#pragma once
// Async event-loop runtime: the wall-clock engine over the shared runtime
// core (beside the discrete-event simulator). Executors are scheduler
// *tasks*, not threads: an enqueue event notifies the destination task
// runnable, a small pool of loop threads runs bounded steps off
// work-stealing ready queues, and deadlines (spout pacing, window ticks)
// ride a hashed timer wheel — see rt/event_loop.hpp.
//
// Backpressure (kBlockUpstream) never blocks a thread: the
// InflightLimiter parks a batch that does not fit and *suspends the
// emitting task* until the credit release re-queues it. Hundreds of
// logical workers run on a handful of loop threads, thread wait cycles
// cannot form, and the queue bound is never overshot.
//
// The "workers" of the config stay the placement / fault / crash domain
// (same deterministic interleaved schedule and crash reassignment as the
// simulator) but are decoupled from OS threads: AsyncConfig::threads
// sizes the loop pool independently.
#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "dsps/acker.hpp"
#include "dsps/metrics.hpp"
#include "dsps/scheduler.hpp"
#include "dsps/topology.hpp"
#include "rt/event_loop.hpp"
#include "rt/inflight_limiter.hpp"
#include "runtime/control_surface.hpp"
#include "runtime/flow_control.hpp"
#include "runtime/topology_state.hpp"
#include "runtime/tuple_batch.hpp"
#include "runtime/window_stats.hpp"

namespace repro::rt {

struct AsyncConfig {
  /// Logical workers: the placement, fault and crash domain.
  std::size_t workers = 2;
  /// Event-loop OS threads. 0 (default) picks
  /// min(workers, hardware_concurrency) — the logical worker count is a
  /// placement domain, not a thread count, so oversubscribing cores is
  /// never useful here.
  std::size_t threads = 0;
  double window_seconds = 0.1;  ///< metrics/on_window cadence (wall clock)
  double ack_timeout = 5.0;
  /// End-to-end backpressure: spouts stop emitting while this many tuple
  /// trees are in flight. With the default unbounded queues this is the
  /// only limit; under kBlockUpstream it must be > 0 (it caps the parked
  /// emits).
  std::size_t max_spout_pending = 5000;
  /// Bounded data path (runtime::FlowControl): per-task in-queue capacity
  /// and overflow policy. Default kUnbounded keeps the historical
  /// behaviour; kBlockUpstream suspends the emitting task on a full queue.
  runtime::FlowControlConfig flow{};
  /// Metrics-history retention (runtime::WindowHistory capacity). The
  /// wall-clock runtime is long-lived, so it bounds history by default —
  /// at least this many most-recent windows are kept and memory stays
  /// flat. Set 0 to opt out (unbounded, like the simulator's default).
  std::size_t history_capacity = 4096;
  /// Columnar batched data path: tuples coalesced into one TupleBatch at
  /// every emit site before routing/enqueue, amortizing the per-item
  /// queue-mutex and acker-lock work over whole batches. 1 (the default)
  /// keeps the tuple-at-a-time behaviour. Under kBlockUpstream it must be
  /// <= flow.queue_capacity (batches park whole).
  std::size_t batch_size = 1;
};

struct RtTotals {
  std::uint64_t roots_emitted = 0;
  std::uint64_t acked = 0;
  std::uint64_t failed = 0;
  std::uint64_t executed = 0;
  std::uint64_t lost = 0;  ///< tuples discarded from crashed workers' queues
  std::uint64_t dropped_overflow = 0;  ///< shed at full bounded in-queues
  std::uint64_t worker_crashes = 0;
  std::uint64_t worker_restarts = 0;
  std::uint64_t worker_retires = 0;   ///< graceful scale-in drains
  std::uint64_t worker_adds = 0;      ///< scale-out re-activations
  std::uint64_t task_migrations = 0;  ///< executors moved by rescale plans
  // Scheduler observability (see dsps::SchedulerWindowStats).
  std::uint64_t wakeups_productive = 0;
  std::uint64_t wakeups_spurious = 0;
  std::uint64_t steals = 0;
  std::uint64_t suspends = 0;
  std::uint64_t resumes = 0;
  std::size_t ready_peak = 0;
};

class AsyncEngine : public runtime::ControlSurface {
 public:
  AsyncEngine(dsps::Topology topology, AsyncConfig config);
  ~AsyncEngine() override;

  AsyncEngine(const AsyncEngine&) = delete;
  AsyncEngine& operator=(const AsyncEngine&) = delete;

  /// Start the loop pool + metrics thread. Call once.
  void start();
  /// Signal shutdown and join all threads. Safe to call repeatedly.
  void stop();
  /// Convenience: start, run for a wall-clock duration, stop.
  void run_for(std::chrono::milliseconds duration);

  RtTotals totals() const;
  /// Mean complete latency (seconds) over all acked roots.
  double mean_complete_latency() const;
  /// Executed-tuple count per task (cumulative snapshot).
  std::vector<std::uint64_t> executed_per_task() const;

  // --- control surface -----------------------------------------------
  std::string backend_name() const override { return "async"; }
  /// Wall-clock seconds since start().
  double now_seconds() const override;
  /// Wall-clock WindowSamples collected by the metrics thread (retention
  /// set by AsyncConfig::history_capacity; bounded by default). Safe to
  /// read from a control hook (fires on the metrics thread) or after
  /// stop(); racy while the loop runs otherwise.
  const runtime::WindowHistory& window_history() const override { return history_; }
  std::size_t worker_count() const override { return config_.workers; }
  std::pair<std::size_t, std::size_t> tasks_of(const std::string& component) const override;
  std::size_t worker_of_task(std::size_t global_task) const override;
  std::vector<std::size_t> workers_of(const std::string& component) const override;
  std::size_t queue_length_of_task(std::size_t global_task) const override;
  const runtime::FlowControl* flow_control() const override { return &flow_; }
  dsps::SchedulerWindowStats scheduler_totals() const override;
  std::shared_ptr<dsps::DynamicRatio> dynamic_ratio(const std::string& from,
                                                    const std::string& to) const override;
  std::vector<runtime::DynamicEdge> dynamic_edges() const override;
  /// Fire `hook` on the metrics thread every `interval` seconds (rounded
  /// to a whole number of windows). Set before start().
  void set_control_hook(double interval, runtime::ControlSurface::ControlHook hook) override;
  // Fault actuators (thread-safe; usable while the runtime executes).
  bool supports_fault_injection() const override { return true; }
  /// Stretch the worker's bolt executions by `factor` (busy-wait padding
  /// after each step; shows up in avg_proc_time like a degraded host).
  void set_worker_slowdown(std::size_t worker, double factor) override;
  /// Drop tuples arriving at the worker's tasks with this probability
  /// (their roots fail at the ack timeout, as with a lossy worker).
  void set_worker_drop_prob(std::size_t worker, double probability) override;
  double worker_slowdown(std::size_t worker) const override;
  double worker_drop_prob(std::size_t worker) const override;
  // Spout rate control (thread-safe): the credit cap lives in an atomic
  // the spout steps read, so a rate controller can retune it mid-run.
  bool supports_spout_throttle() const override { return true; }
  std::size_t max_spout_pending() const override {
    return spout_cap_.load(std::memory_order_relaxed);
  }
  void set_max_spout_pending(std::size_t cap) override;
  // Crash/recovery (thread-safe; usable while the runtime executes). The
  // in-process analogue of the simulator's hard kill: everything queued
  // at the worker's executors is discarded (those roots fail at the ack
  // timeout), and the supervisor reassigns the executors via the shared
  // deterministic policy, so recovered routing tables match across
  // backends. Documented tolerance vs the simulator: a batch already
  // mid-step on a loop thread completes, and there is no timeout-driven
  // replay on this backend.
  bool supports_crash_recovery() const override { return true; }
  void crash_worker(std::size_t worker) override;
  void restart_worker(std::size_t worker) override;
  bool worker_alive(std::size_t worker) const override;
  // Elastic scaling (thread-safe). Graceful migration needs no lease:
  // the EventLoop's single-runner guarantee already serializes steps of a
  // task, so placement mutates under placement_mutex_ and the moved tasks
  // are re-notified (outside the mutex) so the loop resumes them on their
  // preserved queues.
  bool supports_elastic_scaling() const override { return true; }
  void add_worker(std::size_t worker) override;
  void retire_worker(std::size_t worker) override;
  void migrate_tasks(const std::vector<dsps::TaskMove>& moves) override;
  bool worker_active(std::size_t worker) const override;
  std::vector<std::vector<std::size_t>> worker_task_snapshot() const override;
  /// Placement-table consistency check (see
  /// runtime::TopologyState::placement_audit).
  std::string placement_audit() const;

 private:
  struct QueuedBatch {
    runtime::TupleBatch batch;
    std::chrono::steady_clock::time_point enqueued;
  };

  /// Plain mutex-guarded in-queue; no condition variable — wakeups go
  /// through EventLoop::notify, so nothing ever waits here.
  struct TaskQueue {
    std::mutex mutex;
    std::deque<QueuedBatch> items;
    std::size_t tuples = 0;
    std::size_t high_water = 0;
  };

  class Collector;

  /// Per-task state. Single-runner guarantee comes from the EventLoop's
  /// task state machine (a task is never stepped by two loop threads at
  /// once), so collector/emits/next_* need no lease.
  struct TaskAsync {
    std::unique_ptr<Collector> collector;
    std::unique_ptr<TaskQueue> queue;
    runtime::EmitBuffer emits;
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> w_executed{0};
    std::atomic<std::uint64_t> w_emitted{0};
    std::atomic<std::uint64_t> w_received{0};
    std::atomic<std::uint64_t> w_dropped{0};
    std::atomic<std::uint64_t> w_exec_ns{0};
    std::atomic<std::uint64_t> w_wait_ns{0};
    std::chrono::steady_clock::time_point next_spout_poll{};
    std::chrono::steady_clock::time_point next_window{};
  };

  /// Per-worker fault-injection state (placement lives in core_).
  struct WorkerFaults {
    std::atomic<double> slowdown{1.0};
    std::atomic<double> drop_prob{0.0};
  };

  EventLoop::StepResult step_task(std::uint32_t task_id, std::size_t slot);
  void metrics_loop();
  void sample_window(std::chrono::steady_clock::time_point now);
  void spout_step(TaskAsync& task, std::size_t task_id,
                  std::chrono::steady_clock::time_point now);
  bool bolt_step(TaskAsync& task, std::size_t task_id, std::size_t worker);
  void buffer_emit(std::size_t task, dsps::Tuple&& t);
  void flush_emits(std::size_t task);
  void route_emit_batch(std::size_t src_task, runtime::TupleBatch& batch);
  void enqueue(std::size_t src_task, std::size_t dest, runtime::TupleBatch&& b);
  /// Push an admitted batch into dest's queue and notify the task
  /// (credits already acquired / not needed). The limiter's deliver hook.
  void deliver_admitted(std::size_t src, std::size_t dest, runtime::TupleBatch&& b);
  double seconds_since_start(std::chrono::steady_clock::time_point tp) const;
  /// Count applied migrations and wake the moved tasks.
  void resume_migrated(const std::vector<dsps::TaskMove>& applied);
  bool gated(std::size_t task) const {
    return limiter_ != nullptr && limiter_->gated(task);
  }

  dsps::Topology topo_;
  AsyncConfig config_;
  runtime::TopologyState core_;
  runtime::FlowControl flow_;
  std::deque<TaskAsync> tasks_;
  std::deque<WorkerFaults> workers_;
  /// Serializes core_'s placement mutators and worker_tasks() reads; the
  /// hot paths read owners and liveness through core_'s lock-free loads.
  mutable std::mutex placement_mutex_;
  std::unique_ptr<InflightLimiter> limiter_;  ///< kBlockUpstream only
  std::unique_ptr<EventLoop> loop_;
  /// Live spout-throttle cap (initialized from config_.max_spout_pending).
  std::atomic<std::size_t> spout_cap_{0};
  std::atomic<std::uint64_t> lost_{0};
  std::atomic<std::uint64_t> crashes_{0};
  std::atomic<std::uint64_t> restarts_{0};
  std::atomic<std::uint64_t> retires_{0};
  std::atomic<std::uint64_t> adds_{0};
  std::atomic<std::uint64_t> migrations_{0};
  std::thread metrics_thread_;
  std::atomic<bool> running_{false};
  bool started_ = false;
  std::chrono::steady_clock::time_point start_time_{};

  mutable std::mutex acker_mutex_;
  dsps::Acker acker_;
  runtime::TopologyCounters w_topo_;  ///< guarded by acker_mutex_
  std::atomic<std::uint64_t> next_tuple_id_{1};
  std::atomic<std::uint64_t> roots_emitted_{0};
  std::atomic<std::uint64_t> acked_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> latency_ns_sum_{0};

  dsps::SchedulerWindowStats sched_prev_;  ///< metrics thread only: last drained totals

  runtime::WindowHistory history_;  ///< written by metrics thread
  double control_interval_ = 0.0;
  runtime::ControlSurface::ControlHook control_hook_;
};

}  // namespace repro::rt

#pragma once
// Async event-loop runtime: the wall-clock engine over the shared runtime
// core (beside the discrete-event simulator). Executors are scheduler
// *tasks*, not threads: an enqueue event notifies the destination task
// runnable, a small pool of loop threads runs bounded steps off
// work-stealing ready queues, and deadlines (spout pacing, window ticks)
// ride the loop's timers — see rt/event_loop.hpp.
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
//
// This class is the event loop's scheduler only. The tuple path it drives
// (emit buffering, routing, ids and anchors, execute/flush/ack, the window
// tail, the ControlSurface lookups) is runtime::DataPath, shared with the
// simulator; here it runs with a std::mutex around the acker.
#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "dsps/metrics.hpp"
#include "dsps/scheduler.hpp"
#include "dsps/topology.hpp"
#include "rt/event_loop.hpp"
#include "rt/inflight_limiter.hpp"
#include "runtime/data_path.hpp"
#include "runtime/flow_control.hpp"
#include "runtime/tuple_batch.hpp"

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

class AsyncEngine : public runtime::DataPath<std::mutex> {
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
  // The window history (retention set by AsyncConfig::history_capacity;
  // bounded by default) is written by the metrics thread: read it from a
  // control hook (fires on the metrics thread) or after stop().
  std::string backend_name() const override { return "async"; }
  /// Wall-clock seconds since start().
  double now_seconds() const override;
  std::size_t queue_length_of_task(std::size_t global_task) const override;
  dsps::SchedulerWindowStats scheduler_totals() const override;
  /// Fire `hook` on the metrics thread every `interval` seconds (rounded
  /// to a whole number of windows). Set before start().
  void set_control_hook(double interval, runtime::ControlSurface::ControlHook hook) override;
  // Fault actuators (thread-safe; usable while the runtime executes).
  /// Stretch the worker's bolt executions by `factor` (busy-wait padding
  /// after each step; shows up in avg_proc_time like a degraded host).
  void set_worker_slowdown(std::size_t worker, double factor) override;
  /// Drop tuples arriving at the worker's tasks with this probability
  /// (their roots fail at the ack timeout, as with a lossy worker).
  void set_worker_drop_prob(std::size_t worker, double probability) override;
  double worker_slowdown(std::size_t worker) const override;
  double worker_drop_prob(std::size_t worker) const override;
  // Crash/recovery (thread-safe; usable while the runtime executes). The
  // in-process analogue of the simulator's hard kill: everything queued
  // at the worker's executors is discarded (those roots fail at the ack
  // timeout), and the supervisor reassigns the executors via the shared
  // deterministic policy, so recovered routing tables match across
  // backends. Documented tolerance vs the simulator: a batch already
  // mid-step on a loop thread completes, and there is no timeout-driven
  // replay on this backend.
  void crash_worker(std::size_t worker) override;
  void restart_worker(std::size_t worker) override;
  // Elastic scaling (thread-safe). Graceful migration needs no lease:
  // the EventLoop's single-runner guarantee already serializes steps of a
  // task, so placement mutates under placement_lock_ and the moved tasks
  // are re-notified (outside the lock) so the loop resumes them on their
  // preserved queues.
  void add_worker(std::size_t worker) override;
  void retire_worker(std::size_t worker) override;
  void migrate_tasks(const std::vector<dsps::TaskMove>& moves) override;

 protected:
  void count_emitted(std::size_t task, std::size_t n) override;
  /// Fault dice, then admission: deliver, shed the tail (kDropNewest) or
  /// park through the InflightLimiter (kBlockUpstream).
  void admit(std::size_t src_task, std::size_t dest, runtime::TupleBatch& batch) override;

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

  /// Per-task state. Single-runner guarantee comes from the EventLoop's
  /// task state machine (a task is never stepped by two loop threads at
  /// once), so next_* need no lease.
  struct TaskAsync {
    std::unique_ptr<TaskQueue> queue;
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
  /// Push an admitted batch into dest's queue and notify the task
  /// (credits already acquired / not needed). The limiter's deliver hook.
  void deliver_admitted(std::size_t src, std::size_t dest, runtime::TupleBatch&& b);
  /// Append `qb` to `q` (its mutex held), merged into the tail batch when
  /// it fits (DataPath::coalesce).
  void push_locked(TaskQueue& q, QueuedBatch&& qb);
  double seconds_since_start(std::chrono::steady_clock::time_point tp) const;
  /// Count applied migrations and wake the moved tasks.
  void resume_migrated(const std::vector<dsps::TaskMove>& applied);
  bool gated(std::size_t task) const {
    return limiter_ != nullptr && limiter_->gated(task);
  }

  AsyncConfig config_;
  std::deque<TaskAsync> tasks_;
  std::deque<WorkerFaults> workers_;
  std::unique_ptr<InflightLimiter> limiter_;  ///< kBlockUpstream only
  std::unique_ptr<EventLoop> loop_;
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

  dsps::SchedulerWindowStats sched_prev_;  ///< metrics thread only: last drained totals
};

}  // namespace repro::rt

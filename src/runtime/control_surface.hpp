#pragma once
// The runtime-agnostic control/observability surface. The predictive
// control loop (monitor -> predict -> detect -> plan -> actuate) needs
// only Storm-level abstractions — multilevel window statistics, component
// -> task -> worker placement, and the dynamic-grouping split-ratio handle
// — so it is written against this interface and attaches unchanged to the
// discrete-event engine (dsps::Engine) or the event-loop wall-clock
// runtime (rt::AsyncEngine).
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dsps/grouping.hpp"
#include "dsps/metrics.hpp"
#include "dsps/scheduler.hpp"
#include "runtime/window_history.hpp"

namespace repro::runtime {

class FlowControl;

/// One controllable (from -> to) dynamic-grouping connection of a
/// topology, as discovered by ControlSurface::dynamic_edges().
struct DynamicEdge {
  std::string from;
  std::string to;
};

class ControlSurface {
 public:
  /// Periodic control callback. Fired at window boundaries, every
  /// `interval` seconds (rounded to a whole number of windows), from the
  /// backend's metrics context — on the async runtime that is the
  /// sampler thread, so hooks may freely read history().
  using ControlHook = std::function<void(ControlSurface&)>;

  virtual ~ControlSurface();

  /// Short backend identifier ("sim", "async").
  virtual std::string backend_name() const = 0;
  /// Current time in seconds: simulated time or wall-clock since start().
  virtual double now_seconds() const = 0;

  // --- observability ---------------------------------------------------
  /// The window-history spine: retention-bounded multilevel per-window
  /// statistics with stable global window indices. On threaded backends,
  /// read only from a control hook (fires in the writer's context) or
  /// after the run stopped.
  virtual const WindowHistory& window_history() const = 0;
  /// Legacy view: the retained window samples as a vector (the complete
  /// history when the spine is unbounded). Same threading rules as
  /// window_history(). Prefer window_history() for new code — vector
  /// indices stop matching window numbers once eviction kicks in.
  virtual const std::vector<dsps::WindowSample>& history() const;
  virtual std::size_t worker_count() const = 0;
  /// Global task-id range [first, first+parallelism) of a component.
  virtual std::pair<std::size_t, std::size_t> tasks_of(const std::string& component) const = 0;
  virtual std::size_t worker_of_task(std::size_t global_task) const = 0;
  /// Workers hosting at least one task of `component`.
  virtual std::vector<std::size_t> workers_of(const std::string& component) const = 0;
  virtual std::size_t queue_length_of_task(std::size_t global_task) const = 0;
  /// The engine's bounded-queue layer (per-task occupancy, overflow-drop
  /// and backpressure-stall accounting), or nullptr when the backend has
  /// no flow-control layer. Engines with one return it even under the
  /// kUnbounded default (its config says so).
  virtual const FlowControl* flow_control() const { return nullptr; }
  /// Lifetime scheduler counters (wakeups, steals, suspend/resume,
  /// ready-queue peak). Threaded backends override; the simulator has no
  /// scheduler to observe and returns zeros.
  virtual dsps::SchedulerWindowStats scheduler_totals() const { return {}; }

  // --- actuation -------------------------------------------------------
  /// The split-ratio handle of the (from -> to) dynamic-grouping
  /// connection. Throws std::invalid_argument (with a diagnostic naming
  /// the connection) when missing or not dynamic.
  virtual std::shared_ptr<dsps::DynamicRatio> dynamic_ratio(const std::string& from,
                                                            const std::string& to) const = 0;
  /// Every dynamic-grouping connection of the topology, in declaration
  /// order — the edges a topology-attached controller takes over.
  virtual std::vector<DynamicEdge> dynamic_edges() const = 0;
  virtual void set_control_hook(double interval, ControlHook hook) = 0;

  // --- fault actuators (where supported) -------------------------------
  virtual bool supports_fault_injection() const { return false; }
  /// Multiply the worker's per-tuple service durations by `factor` (>= 1).
  virtual void set_worker_slowdown(std::size_t worker, double factor);
  /// Drop tuples arriving at the worker with this probability.
  virtual void set_worker_drop_prob(std::size_t worker, double probability);
  /// Injected-fault state, readable by oracle controllers and tests.
  virtual double worker_slowdown(std::size_t worker) const;
  virtual double worker_drop_prob(std::size_t worker) const;

  // --- spout rate control (where supported) ----------------------------
  /// Backends with a credit-based spout throttle (the acker's pending
  /// count gates spout emission at max_spout_pending in-flight roots)
  /// expose the cap as a live actuator so rate controllers can retune it.
  virtual bool supports_spout_throttle() const { return false; }
  /// The current in-flight-roots cap shared by every spout task.
  virtual std::size_t max_spout_pending() const;
  /// Retune the cap. Fail-closed: throws std::invalid_argument on 0 under
  /// a kBlockUpstream flow policy (backpressure needs a finite credit).
  /// Thread-safe on the real-threads backends (the spouts read an atomic).
  virtual void set_max_spout_pending(std::size_t cap);

  // --- crash/recovery (where supported) --------------------------------
  virtual bool supports_crash_recovery() const { return false; }
  /// Hard-kill a worker: tuples queued at its executors are lost (their
  /// roots fail at the ack timeout), and the supervisor reassigns the
  /// executors to surviving workers via the shared deterministic policy
  /// (dsps::plan_crash_reassignment). No-op if already dead.
  virtual void crash_worker(std::size_t worker);
  /// Rejoin a crashed worker and reclaim its originally assigned
  /// executors (graceful migration: queued tuples move with the task).
  /// No-op if alive.
  virtual void restart_worker(std::size_t worker);
  /// Liveness of a worker; true on backends without crash support.
  virtual bool worker_alive([[maybe_unused]] std::size_t worker) const { return true; }

  // --- elastic scaling (where supported) --------------------------------
  /// The worker pool is fixed at construction; elastic scaling toggles an
  /// orthogonal `active` flag per worker. A retired worker keeps its
  /// process (and crash/restart state) but hosts no executors and is
  /// excluded from placement until re-activated — the modeled analogue of
  /// releasing / re-acquiring a cloud instance.
  virtual bool supports_elastic_scaling() const { return false; }
  /// Re-activate a retired worker so it may host executors again. Does
  /// not rebalance by itself — the rescale planner issues migrate_tasks()
  /// moves onto the rejoined worker. No-op if already active.
  virtual void add_worker(std::size_t worker);
  /// Gracefully drain a worker out of the pool: its executors migrate
  /// (quiesce -> move -> resume, queued tuples travel with the task) to
  /// the remaining active workers via the shared deterministic policy
  /// (dsps::plan_crash_reassignment), then the worker stops accepting
  /// placements. Throws std::invalid_argument when no active worker would
  /// remain to host the executors. No-op if already retired.
  virtual void retire_worker(std::size_t worker);
  /// Apply a batch of planned executor migrations. Fail-closed: every
  /// move is validated first (task range, destination range, destination
  /// alive and active — diagnostics name the offending field, e.g.
  /// "moves[2].to_worker: worker 5 is retired"), then all are applied.
  virtual void migrate_tasks(const std::vector<dsps::TaskMove>& moves);
  /// Scaling eligibility of a worker; true on backends without elastic
  /// scaling (the fixed pool is fully active).
  virtual bool worker_active([[maybe_unused]] std::size_t worker) const { return true; }
  /// Executor placement snapshot: worker_task_snapshot()[w] holds the
  /// global task ids currently on worker w, in task-id order — the input
  /// the rescale planner feeds to dsps::plan_crash_reassignment. Empty on
  /// backends without elastic scaling.
  virtual std::vector<std::vector<std::size_t>> worker_task_snapshot() const { return {}; }
};

}  // namespace repro::runtime

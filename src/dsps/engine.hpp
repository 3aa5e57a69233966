#pragma once
// The stream engine: instantiates a topology on a simulated cluster and
// drives it on the discrete-event queue — spout pacing, tuple routing via
// groupings, queueing and service at executors (with machine interference
// and worker faults), acking, metrics windows, fault plans, and a control
// hook for the predictive controller.
//
// The topology/route tables and the per-window statistics accumulation
// live in the shared runtime core (src/runtime); this class is the
// discrete-event *driver* over that core and also implements
// runtime::ControlSurface so controllers attach to it interchangeably
// with the real-threads runtime.
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "dsps/acker.hpp"
#include "dsps/cluster.hpp"
#include "dsps/component.hpp"
#include "dsps/fault.hpp"
#include "dsps/metrics.hpp"
#include "dsps/scheduler.hpp"
#include "dsps/topology.hpp"
#include "dsps/worker.hpp"
#include "runtime/control_surface.hpp"
#include "runtime/flow_control.hpp"
#include "runtime/topology_state.hpp"
#include "runtime/tuple_batch.hpp"
#include "runtime/window_stats.hpp"
#include "sim/event_queue.hpp"
#include "sim/machine.hpp"
#include "sim/network.hpp"

namespace repro::dsps {

/// Totals accumulated over the whole run.
struct EngineTotals {
  std::uint64_t roots_emitted = 0;  ///< registered roots, including replays
  std::uint64_t acked = 0;
  std::uint64_t failed = 0;
  std::uint64_t tuples_delivered = 0;
  std::uint64_t tuples_executed = 0;
  std::uint64_t tuples_dropped = 0;   ///< dropped by an injected drop fault
  std::uint64_t tuples_lost = 0;      ///< queued/in-flight tuples lost to crashes
  std::uint64_t tuples_dropped_overflow = 0;  ///< shed at full bounded in-queues
  std::uint64_t replays = 0;          ///< roots re-emitted after a timeout
  std::uint64_t replays_exhausted = 0;///< roots failed with no replay budget left
  std::uint64_t worker_crashes = 0;
  std::uint64_t worker_restarts = 0;
  std::uint64_t worker_retires = 0;   ///< graceful scale-in drains
  std::uint64_t worker_adds = 0;      ///< scale-out re-activations
  std::uint64_t task_migrations = 0;  ///< executors moved by rescale plans
};

class Engine : public runtime::ControlSurface {
 public:
  Engine(Topology topology, ClusterConfig config);
  ~Engine() override;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Advance the simulation. Callable repeatedly.
  void run_for(double seconds);
  void run_until(sim::SimTime t);
  sim::SimTime now() const { return queue_.now(); }

  // --- control surface -----------------------------------------------
  std::string backend_name() const override { return "sim"; }
  double now_seconds() const override { return now(); }
  /// The DynamicRatio of the (from -> to) dynamic-grouping connection.
  /// Throws std::invalid_argument when missing or not dynamic.
  std::shared_ptr<DynamicRatio> dynamic_ratio(const std::string& from,
                                              const std::string& to) const override;
  std::vector<runtime::DynamicEdge> dynamic_edges() const override;
  /// Invoke `fn` every `interval` seconds of simulated time.
  void set_control_callback(double interval, std::function<void(Engine&)> fn);
  void set_control_hook(double interval, runtime::ControlSurface::ControlHook hook) override;
  void apply_fault_plan(const FaultPlan& plan);
  // Immediate fault actuators (also usable from tests/examples).
  bool supports_fault_injection() const override { return true; }
  void set_worker_slowdown(std::size_t worker, double factor) override;
  void set_worker_drop_prob(std::size_t worker, double probability) override;
  double worker_slowdown(std::size_t worker) const override;
  double worker_drop_prob(std::size_t worker) const override;
  void stall_worker(std::size_t worker, double duration);
  void set_machine_hog(std::size_t machine, double load);
  /// Extra per-tuple transfer delay on a machine pair (0 clears).
  void set_link_extra_delay(std::size_t machine_a, std::size_t machine_b, double extra_seconds);
  // Crash/recovery: hard-kill a worker (queued tuples lost, executors
  // reassigned via the shared deterministic supervisor policy) and rejoin
  // it (reclaiming its original executors, queues preserved).
  bool supports_crash_recovery() const override { return true; }
  void crash_worker(std::size_t worker) override;
  void restart_worker(std::size_t worker) override;
  bool worker_alive(std::size_t worker) const override;
  // Elastic scaling: graceful retire (executors drain to the remaining
  // active workers, queues preserved), re-activation, and planned
  // executor migration — each migration stalls both endpoint workers by
  // cfg_.rescale_pause (the modeled state-handoff cost).
  // Spout rate control: the credit-based throttle cap (acker pending
  // gate) exposed as a live actuator for rate controllers.
  bool supports_spout_throttle() const override { return true; }
  std::size_t max_spout_pending() const override { return cfg_.max_spout_pending; }
  void set_max_spout_pending(std::size_t cap) override;
  bool supports_elastic_scaling() const override { return true; }
  void add_worker(std::size_t worker) override;
  void retire_worker(std::size_t worker) override;
  void migrate_tasks(const std::vector<TaskMove>& moves) override;
  bool worker_active(std::size_t worker) const override;
  std::vector<std::vector<std::size_t>> worker_task_snapshot() const override;

  // --- introspection ---------------------------------------------------
  /// The window-history spine (retention set by ClusterConfig::
  /// history_capacity; unbounded by default). The inherited history()
  /// vector view stays the full run history in unbounded mode.
  const runtime::WindowHistory& window_history() const override { return history_; }
  const EngineTotals& totals() const { return totals_; }
  /// In-flight (registered, not yet acked/failed) tuple-tree roots.
  std::size_t pending_roots() const { return acker_.pending(); }
  std::size_t worker_count() const override { return workers_.size(); }
  std::size_t machine_count() const { return machines_.size(); }
  const Worker& worker(std::size_t id) const { return workers_.at(id); }
  const sim::Machine& machine(std::size_t id) const { return machines_.at(id); }
  const Topology& topology() const { return topo_; }
  const ClusterConfig& config() const { return cfg_; }
  /// Global task-id range [first, first+parallelism) of a component.
  std::pair<std::size_t, std::size_t> tasks_of(const std::string& component) const override;
  std::size_t worker_of_task(std::size_t global_task) const override;
  /// Workers hosting at least one task of `component`.
  std::vector<std::size_t> workers_of(const std::string& component) const override;
  std::size_t queue_length_of_task(std::size_t global_task) const override;
  /// The bounded data path (present even under the kUnbounded default;
  /// its config() says which policy runs).
  const runtime::FlowControl* flow_control() const override { return &flow_; }
  /// Tuples currently parked at emit sites by kBlockUpstream backpressure
  /// (zero in any other mode; zero again once a bounded run drains).
  std::size_t parked_tuples() const;
  /// Placement-table consistency check (the chaos harness's routing
  /// invariant; see runtime::TopologyState::placement_audit). Empty when
  /// consistent, else a diagnostic.
  std::string placement_audit() const;

 private:
  /// The queue/service unit: a routed TupleBatch and its arrival time at
  /// the destination's in-queue (batch size 1 under the default config).
  struct QueuedBatch {
    runtime::TupleBatch batch;
    sim::SimTime arrive = 0.0;
  };

  class Collector;

  /// A routed batch held at its emit site because the destination's
  /// bounded in-queue is full (kBlockUpstream). Batches park whole and
  /// drain whole — a blocked batch is never split.
  struct ParkedBatch {
    runtime::TupleBatch batch;
    std::size_t src_task = 0;
    sim::SimTime parked_at = 0.0;
  };

  /// Per-task discrete-event state; the static tables (spout/bolt
  /// instances, routes, placement) live in core_.
  struct TaskRuntime {
    std::unique_ptr<Collector> collector;
    std::deque<QueuedBatch> queue;
    std::size_t queued_tuples = 0;  ///< sum of queued batch sizes
    std::size_t in_service = 0;     ///< rows of the batch being serviced (0 if !busy)
    bool busy = false;
    /// Worker running the in-flight service (valid while busy). Usually
    /// the hosting worker, but a graceful migration can move the task
    /// while a batch is still completing on the previous host — crash
    /// accounting must charge that batch to the machine running it.
    std::size_t service_owner = 0;
    bool linger_pending = false;    ///< a deferred try_start event is scheduled
    runtime::TaskCounters window;
    /// Batches destined to *this* task, waiting for its in-queue credit.
    std::deque<ParkedBatch> parked;
    /// How many of this task's emitted batches are parked downstream;
    /// while nonzero the task neither starts service nor (as a spout)
    /// consumes from the workload — that is the hop-by-hop backpressure.
    std::size_t blocked_out = 0;
    /// Per-stream coalescing buffers for this task's bolt emits; flushed
    /// when a batch fills and at the end of every execute/on_window run,
    /// so the buffers are empty between events.
    runtime::EmitBuffer emits;
  };

  void schedule_spout_poll(std::size_t task, double delay);
  void spout_poll(std::size_t task);
  /// Append a bolt emit to its task's coalescing buffer; routes the
  /// stream's open batch the moment it reaches the configured size.
  void buffer_emit(std::size_t task, Tuple&& t);
  /// Route out whatever the task's emit buffers still hold.
  void flush_emits(std::size_t task);
  void route_emit_batch(std::size_t src_task, runtime::TupleBatch& batch);
  /// Put an admitted batch on the (simulated) wire toward `dest` — one
  /// network-delay draw per (destination, batch).
  void transfer(std::size_t src_task, std::size_t dest, runtime::TupleBatch&& b);
  /// Re-admit parked batches at `dest` while it has whole-batch credit,
  /// resuming their stalled emitters.
  void drain_parked(std::size_t dest);
  void deliver(std::size_t dest_task, runtime::TupleBatch&& b);
  void try_start(std::size_t task);
  /// try_start, but at batch_size > 1 a partial batch arriving at an idle
  /// task lingers (cfg_.batch_linger) so more fragments can merge first.
  void start_or_linger(std::size_t task);
  // `owner`/`incarnation` are the hosting worker at scheduling time: a
  // bumped incarnation means the worker crashed while the batch waited or
  // was in service, so the (already counted lost) batch is discarded.
  void begin_service(std::size_t task, QueuedBatch&& qb, std::size_t owner,
                     std::uint64_t incarnation);
  void complete_service(std::size_t task, QueuedBatch&& qb, sim::SimTime start, double duration,
                        std::size_t owner, std::uint64_t incarnation);
  /// Batch-buffer pool: routed batches recycle their column capacity.
  runtime::TupleBatch take_batch();
  void recycle_batch(runtime::TupleBatch&& b);
  void replay_root(std::size_t spout_task, Values&& values, std::size_t attempt);
  /// Count migrations the core applied and stall both endpoints of each
  /// by the modeled rescale pause.
  void stall_migrations(const std::vector<TaskMove>& applied);
  void sample_window();
  void schedule_gc(std::size_t worker);
  void fire_control();
  void apply_fault_event(const FaultEvent& ev);

  Topology topo_;
  ClusterConfig cfg_;
  sim::EventQueue queue_;
  sim::Network network_;
  Acker acker_;
  common::Pcg32 rng_service_;
  common::Pcg32 rng_drop_;

  std::vector<sim::Machine> machines_;
  std::vector<Worker> workers_;
  Assignment assignment_;
  runtime::TopologyState core_;
  runtime::FlowControl flow_;
  std::vector<TaskRuntime> tasks_;
  runtime::BatchRouteScratch route_scratch_;  ///< scratch for core_.route_batch()
  Tuple cost_probe_;   ///< scratch row view for Bolt::tuple_cost
  Tuple exec_probe_;   ///< scratch row view for Bolt::execute
  std::vector<runtime::TupleBatch> batch_pool_;
  std::vector<std::uint64_t> spout_roots_;  ///< scratch: roots of one spout pull

  std::uint64_t next_tuple_id_ = 1;
  runtime::WindowHistory history_;
  EngineTotals totals_;

  // Per-window topology counters.
  runtime::TopologyCounters w_topo_;

  double control_interval_ = 0.0;
  std::function<void(Engine&)> control_fn_;
  bool started_ = false;
};

}  // namespace repro::dsps

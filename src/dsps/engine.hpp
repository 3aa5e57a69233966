#pragma once
// The stream engine: instantiates a topology on a simulated cluster and
// drives it on the discrete-event queue — spout pacing, network delays,
// admission with park or shed, queueing and service at executors (with
// machine interference and worker faults), metrics windows, fault plans,
// and timeout replay.
//
// This class is the simulator's scheduler only. The tuple path it drives
// (emit buffering, routing, ids and anchors, execute/flush/ack, the window
// tail, the ControlSurface lookups) is runtime::DataPath, shared with the
// event-loop runtime; the simulator instantiates it with a no-op lock, so
// its per-tuple path takes no lock.
#include <deque>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "dsps/cluster.hpp"
#include "dsps/component.hpp"
#include "dsps/fault.hpp"
#include "dsps/metrics.hpp"
#include "dsps/scheduler.hpp"
#include "dsps/topology.hpp"
#include "dsps/worker.hpp"
#include "runtime/data_path.hpp"
#include "runtime/tuple_batch.hpp"
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

class Engine : public runtime::DataPath<runtime::NoLock> {
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
  void apply_fault_plan(const FaultPlan& plan);
  // Immediate fault actuators (also usable from tests/examples).
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
  void crash_worker(std::size_t worker) override;
  void restart_worker(std::size_t worker) override;
  // Elastic scaling: graceful retire (executors drain to the remaining
  // active workers, queues preserved), re-activation, and planned
  // executor migration — each migration stalls both endpoint workers by
  // cfg_.rescale_pause (the modeled state-handoff cost).
  void add_worker(std::size_t worker) override;
  void retire_worker(std::size_t worker) override;
  void migrate_tasks(const std::vector<TaskMove>& moves) override;

  // --- introspection ---------------------------------------------------
  /// Totals over the run so far (a snapshot).
  EngineTotals totals() const;
  std::size_t machine_count() const { return machines_.size(); }
  const Worker& worker(std::size_t id) const { return workers_.at(id); }
  const sim::Machine& machine(std::size_t id) const { return machines_.at(id); }
  const ClusterConfig& config() const { return cfg_; }
  std::size_t queue_length_of_task(std::size_t global_task) const override;
  /// Tuples currently parked at emit sites by kBlockUpstream backpressure
  /// (zero in any other mode; zero again once a bounded run drains).
  std::size_t parked_tuples() const;
  /// Batch slots in use: batches on the wire, queued, waiting out a stall,
  /// in service or parked (zero again once a run drains).
  std::size_t batches_in_flight() const { return slots_.size() - free_slots_.size(); }

 protected:
  void count_emitted(std::size_t task, std::size_t n) override;
  /// A free batch slot: each routed copy lives in its slot from route on.
  runtime::TupleBatch& copy_buffer(std::size_t src_task) override;
  /// Admission at route time: transfer the copy, park it whole
  /// (kBlockUpstream) or shed its tail (kDropNewest).
  void admit(std::size_t src_task, std::size_t dest, runtime::TupleBatch& copy) override;
  void root_done(std::uint64_t root, std::size_t spout_task, bool acked) override;

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// The queue/service unit: one routed TupleBatch (batch size 1 under the
  /// default config). It lives in one engine-owned slot from route to
  /// completion or loss — on the wire, in its task's queue, waiting out a
  /// stall, in service, or parked at its emit site — so the events that
  /// move it capture only `this` and 32-bit task/slot indices. A released
  /// slot keeps its columns' capacity for the next batch.
  struct BatchSlot {
    runtime::TupleBatch batch;
    /// Start of the current wait: the in-queue arrival, or while parked
    /// (kBlockUpstream: the destination's bounded in-queue is full) the
    /// park time. Batches park whole and drain whole.
    sim::SimTime wait_start = 0.0;
    double duration = 0.0;          ///< service time, set at service start
    std::uint64_t incarnation = 0;  ///< serving worker's incarnation at dequeue
    std::uint32_t owner = 0;        ///< serving worker, set at dequeue
    std::uint32_t src_task = 0;     ///< emitting task (parked batches)
    std::uint32_t next = kNoSlot;   ///< link in a SlotFifo
  };

  /// FIFO of slots linked through BatchSlot::next: pushes and pops never
  /// allocate. A slot is in at most one FIFO at a time.
  struct SlotFifo {
    std::uint32_t head = kNoSlot;
    std::uint32_t tail = kNoSlot;
    bool empty() const { return head == kNoSlot; }
  };

  /// Per-task discrete-event state; the static tables (spout/bolt
  /// instances, routes, placement) live in core_, the emit side in the
  /// data path.
  struct TaskRuntime {
    SlotFifo queue;
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
    SlotFifo parked;
    /// How many of this task's emitted batches are parked downstream;
    /// while nonzero the task neither starts service nor (as a spout)
    /// consumes from the workload — that is the hop-by-hop backpressure.
    std::size_t blocked_out = 0;
  };

  void schedule_spout_poll(std::size_t task, double delay);
  void spout_poll(std::size_t task);
  /// Put an admitted batch on the (simulated) wire toward `dest` — one
  /// network-delay draw per (destination, batch).
  void transfer(std::size_t src_task, std::size_t dest, std::uint32_t slot);
  /// Re-admit parked batches at `dest` while it has whole-batch credit,
  /// resuming their stalled emitters.
  void drain_parked(std::size_t dest);
  void deliver(std::size_t dest_task, std::uint32_t slot);
  void try_start(std::size_t task);
  /// try_start, but at batch_size > 1 a partial batch arriving at an idle
  /// task lingers (cfg_.batch_linger) so more fragments can merge first.
  void start_or_linger(std::size_t task);
  // The slot's owner/incarnation are the serving worker's at dequeue: a
  // bumped incarnation means the worker crashed while the batch waited or
  // was in service, so the (already counted lost) batch is discarded.
  void begin_service(std::size_t task, std::uint32_t slot);
  void complete_service(std::size_t task, std::uint32_t slot);
  /// A free slot (its batch empty), growing the slab when none is free.
  std::uint32_t acquire_slot();
  /// Every exit of a batch — completion, stale incarnation, crash wipe,
  /// drop fault, tail merge, shed — releases its slot exactly once.
  void release_slot(std::uint32_t slot);
  void fifo_push(SlotFifo& q, std::uint32_t slot);
  std::uint32_t fifo_pop(SlotFifo& q);
  /// The acker's replay hook: re-emit a timed-out root's values under a
  /// fresh root id, up to cfg_.max_replays times.
  void replay_root(std::size_t spout_task, Values&& values, std::size_t attempt);
  /// Count migrations the core applied and stall both endpoints of each
  /// by the modeled rescale pause.
  void stall_migrations(const std::vector<TaskMove>& applied);
  void sample_window();
  void schedule_gc(std::size_t worker);
  void apply_fault_event(const FaultEvent& ev);

  ClusterConfig cfg_;
  sim::EventQueue queue_;
  sim::Network network_;
  common::Pcg32 rng_service_;
  common::Pcg32 rng_drop_;

  std::vector<sim::Machine> machines_;
  std::vector<Worker> workers_;
  std::vector<TaskRuntime> tasks_;
  Tuple cost_probe_;   ///< scratch row view for Bolt::tuple_cost
  /// The batch slots. A deque: a handler holds its slot's reference while
  /// execute -> emit -> route acquires new slots, and growing a deque at
  /// the back moves no element.
  std::deque<BatchSlot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint32_t building_ = 0;  ///< the slot copy_buffer() handed out last

  /// Run totals; the root counts come from the data path (see totals()).
  EngineTotals totals_;
  bool started_ = false;
};

}  // namespace repro::dsps

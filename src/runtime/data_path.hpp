#pragma once
// The tuple path both engines share. dsps::Engine (the discrete-event
// simulator) and rt::AsyncEngine (the wall-clock event loop) differ only
// in how they schedule work: when a spout may pull, how an admitted batch
// reaches its destination queue, when a queued batch runs. Every step a
// tuple takes between those decisions is written once, here:
//
//   spout pull -> root registration -> route (row copy, ids, anchors)
//     -> [engine: admission, transfer, queueing, service]
//     -> execute (root context, emit buffering) -> flush -> ack
//
// plus the window tail (flow counters, the acker's one sweep, the
// topology row, the history, the control hook) and the ControlSurface
// lookups over the shared TopologyState.
//
// The path reads no clock: each step takes the time as an argument, sim
// time on the simulator and wall-clock seconds since start on the event
// loop. Its acker section runs under the engine's lock type: NoLock on
// the single-threaded simulator, so its tuple path takes no lock, and
// std::mutex on the event loop, where bolts ack from several loop threads
// while the sampler thread sweeps.
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "dsps/acker.hpp"
#include "dsps/scheduler.hpp"
#include "dsps/topology.hpp"
#include "runtime/control_surface.hpp"
#include "runtime/flow_control.hpp"
#include "runtime/topology_state.hpp"
#include "runtime/tuple_batch.hpp"
#include "runtime/window_history.hpp"
#include "runtime/window_stats.hpp"

namespace repro::runtime {

/// The lock of a single-threaded engine: a BasicLockable that does nothing.
struct NoLock {
  void lock() {}
  void unlock() {}
};

/// The settings the data path reads. Each engine copies them from its own
/// config (dsps::ClusterConfig, rt::AsyncConfig); none is new.
struct DataPathConfig {
  std::size_t batch_size = 1;         ///< emit-buffer flush size and spout pull cap
  std::size_t max_spout_pending = 0;  ///< initial in-flight-roots cap per spout task
  double ack_timeout = 10.0;
  double window_seconds = 1.0;
  std::size_t history_capacity = 0;
  FlowControlConfig flow{};
  bool replay_on_failure = false;  ///< stash each root's values for timeout replay
};

template <typename Lock>
class DataPath : public ControlSurface {
 public:
  ~DataPath() override = default;

  DataPath(const DataPath&) = delete;
  DataPath& operator=(const DataPath&) = delete;

  // --- ControlSurface lookups over the shared tables --------------------
  const WindowHistory& window_history() const override { return history_; }
  std::size_t worker_count() const override { return core_.worker_count(); }
  /// Global task-id range [first, first+parallelism) of a component.
  std::pair<std::size_t, std::size_t> tasks_of(const std::string& component) const override {
    return core_.tasks_of(component);
  }
  std::size_t worker_of_task(std::size_t global_task) const override {
    return core_.worker_of_task(global_task);
  }
  /// Workers hosting at least one task of `component`.
  std::vector<std::size_t> workers_of(const std::string& component) const override {
    return core_.workers_of(component);
  }
  /// The DynamicRatio of the (from -> to) dynamic-grouping connection.
  /// Throws std::invalid_argument when missing or not dynamic.
  std::shared_ptr<dsps::DynamicRatio> dynamic_ratio(const std::string& from,
                                                    const std::string& to) const override {
    return find_dynamic_ratio(topo_, from, to);
  }
  std::vector<DynamicEdge> dynamic_edges() const override { return list_dynamic_edges(topo_); }
  /// The bounded data path (present even under the kUnbounded default;
  /// its config() says which policy runs).
  const FlowControl* flow_control() const override { return &flow_; }
  bool worker_alive(std::size_t worker) const override { return core_.worker_alive(worker); }
  bool worker_active(std::size_t worker) const override { return core_.worker_active(worker); }
  std::vector<std::vector<std::size_t>> worker_task_snapshot() const override;
  /// Fire `hook` at every window boundary that ends a control interval
  /// (`interval` rounded to a whole number of windows, at least one).
  void set_control_hook(double interval, ControlHook hook) override;
  /// The spout-throttle cap lives in an atomic the spout steps read, so a
  /// rate controller can retune it while a threaded engine runs.
  std::size_t max_spout_pending() const override {
    return spout_cap_.load(std::memory_order_relaxed);
  }
  void set_max_spout_pending(std::size_t cap) override;

  /// Placement-table consistency check (the chaos harness's routing
  /// invariant; see TopologyState::placement_audit). Empty when
  /// consistent, else a diagnostic.
  std::string placement_audit() const;
  const dsps::Topology& topology() const { return topo_; }
  /// In-flight (registered, not yet acked or failed) tuple-tree roots.
  std::size_t pending_roots() const;

 protected:
  /// Lifetime root counts, kept by the acker section.
  struct RootTotals {
    std::uint64_t emitted = 0;  ///< registered roots, including replays
    std::uint64_t acked = 0;
    std::uint64_t failed = 0;
    double latency_sum = 0.0;  ///< summed complete latency of the acked roots
  };

  /// Instantiate `topology` over `workers` workers on `machines` machines
  /// (dsps::interleaved_schedule), seeding the route groupings from
  /// `route_seed`, and open its components. `p99` says where the window's
  /// p99 complete latency comes from. Throws std::invalid_argument on no
  /// worker or on a data-path setting the flow policy cannot run.
  DataPath(dsps::Topology topology, std::size_t workers, std::size_t machines,
           std::uint64_t route_seed, DataPathConfig config, P99Source p99);

  // --- what each engine supplies ----------------------------------------
  /// Count a batch of `n` tuples that `task` emitted (its window counters).
  virtual void count_emitted(std::size_t task, std::size_t n) = 0;
  /// The empty batch the next routed copy from `src_task` is built in;
  /// admit() receives it right after. The default is a per-task buffer
  /// that admit() moves from; the sim hands out a batch slot instead.
  virtual TupleBatch& copy_buffer(std::size_t src_task);
  /// Take a routed copy toward `dest`, built in copy_buffer(). Its rows
  /// have ids and are already anchored, so a copy the engine parks or
  /// sheds keeps its roots pending.
  virtual void admit(std::size_t src_task, std::size_t dest, TupleBatch& copy) = 0;
  /// A root completed (`acked`) or failed. Runs inside the acker section.
  /// Only the simulator forwards it to the spout: on the event loop a
  /// bolt's loop thread acks while the spout steps on another thread.
  virtual void root_done(std::uint64_t /*root*/, std::size_t /*spout_task*/, bool /*acked*/) {}

  // --- the shared steps -------------------------------------------------
  /// One spout pull at `now`: take up to one batch of tuples from the
  /// spout, as many as its in-flight cap leaves room for, register them as
  /// roots, route them, and complete at once any root nothing subscribed
  /// to. The caller drew the first inter-arrival delay (pacing stays in the
  /// engine); each further pull adds its own draw to `delay`, so the
  /// offered rate does not depend on the batch size. Returns false, and
  /// pulls nothing, when the cap leaves no room.
  bool pull_roots(std::size_t task, double now, double& delay);
  /// Register and route one root outside a spout pull: a timeout replay of
  /// `values`, whose earlier emissions number `attempt`.
  void emit_root(std::size_t task, dsps::Values&& values, double now, std::size_t attempt);
  /// Run `batch` through its bolt: each row executes with its root as the
  /// emit context, the task's buffered emits are routed, and only then
  /// are the inputs acked, at the time `end_service()` returns (called
  /// once, after the flush; the engine closes its service accounting
  /// there). The value rows are consumed.
  template <typename EndService>
  void execute(std::size_t task, TupleBatch& batch, EndService&& end_service);
  /// The bolt's window-boundary callback at `now`; its emits are
  /// unanchored and flushed before this returns.
  void window_callback(std::size_t task, double now);
  /// Destination-side re-coalescing: routing fans each batch out into
  /// per-destination fragments, so without a merge the effective batch
  /// size decays by the fan-out at every hop. At batch size > 1, fold an
  /// arriving `fragment` into its queue's `tail` batch when the streams
  /// match and the rows fit, so service, acking and the next hop keep
  /// full-size batches. Returns whether it merged (`fragment` is then
  /// empty).
  bool coalesce(TupleBatch& tail, TupleBatch& fragment) const;

  // The window tail: the engine builds the task rows, then the worker
  // rows, then its machine rows, calls close_window, and after any
  // window callbacks fire_control.
  /// Fold the flow-control layer's overflow drops and stall for `task`
  /// into `c`, then finalize its row (resets `c`).
  dsps::TaskWindowStats task_row(std::size_t task, TaskCounters& c);
  /// Finalize a worker row from its raw counters `c` (reset here) and the
  /// rows of the tasks it hosts.
  dsps::WorkerWindowStats worker_row(std::size_t worker, std::size_t machine,
                                     const std::vector<std::size_t>& hosted, WorkerCounters& c,
                                     const std::vector<dsps::TaskWindowStats>& tasks);
  /// Stamp the window at `now`, sweep the acker, add the topology row and
  /// push the sample onto the history.
  void close_window(dsps::WindowSample&& sample, double now);
  /// Fire the control hook when the window just closed ends an interval.
  void fire_control();

  RootTotals root_totals() const;
  const dsps::Assignment& assignment() const { return assignment_; }

 private:
  /// Per-task OutputCollector: emits land in the task's per-stream
  /// coalescing buffer, anchored to the root of the row executing.
  class Collector final : public dsps::OutputCollector {
   public:
    Collector(DataPath* path, std::size_t task) : path_(path), task_(task) {}

    void emit(dsps::Values values, const std::string& stream) override;
    sim::SimTime now() const override { return path_->now_seconds(); }
    std::size_t task_index() const override { return path_->core_.task(task_).comp_index; }
    std::size_t peer_count() const override {
      return path_->core_.component_of_task(task_).parallelism;
    }

    void set_context(std::uint64_t root, double root_time) {
      root_ = root;
      root_time_ = root_time;
    }
    void clear_context() { set_context(0, 0.0); }

   private:
    DataPath* path_;
    std::size_t task_;
    std::uint64_t root_ = 0;
    double root_time_ = 0.0;
  };

  /// A task's emit-side state. Only the task's own runner touches it, so
  /// it needs no lock; the columns keep their capacity across batches.
  struct TaskPath {
    TaskPath(DataPath* path, std::size_t task) : collector(path, task) {}
    Collector collector;
    EmitBuffer emits;
    BatchRouteScratch route;  ///< scratch for core_.route_batch
    TupleBatch copy;          ///< default copy_buffer()
    TupleBatch pull;          ///< one spout pull or replay
    dsps::Tuple probe;        ///< row view for Bolt::execute
  };

  /// Append an emit to its stream's buffer; route the batch once full.
  void buffer_emit(std::size_t task, dsps::Tuple&& t);
  /// Route out whatever the task's emit buffers still hold.
  void flush(std::size_t task);
  /// Per destination: copy the rows, give them ids, anchor them, admit.
  void route(std::size_t src_task, TupleBatch& batch);
  /// Register `batch`'s rows as roots of `task`, route them, and complete
  /// the ones nothing anchored. Clears `batch`.
  void emit_roots(std::size_t task, TupleBatch& batch, double now, std::size_t attempt);
  void ack(const TupleBatch& batch, double now);

  // Declaration order is construction order: core_ reads topo_ and
  // assignment_.
  dsps::Topology topo_;
  dsps::Assignment assignment_;
  DataPathConfig path_cfg_;

 protected:
  TopologyState core_;
  FlowControl flow_;
  /// The tuple-tree acker; guarded by acker_lock_. An engine that sets a
  /// replay hook gets it called inside sweep(), with the lock held.
  dsps::Acker acker_;
  /// Serializes core_'s placement mutators and worker_tasks() reads.
  mutable Lock placement_lock_;

 private:
  mutable Lock acker_lock_;
  TopologyCounters w_topo_;       ///< guarded by acker_lock_
  RootTotals roots_;              ///< guarded by acker_lock_
  std::uint64_t shed_at_close_ = 0;  ///< guarded by acker_lock_
  std::uint64_t next_id_ = 1;        ///< guarded by acker_lock_
  std::atomic<std::size_t> spout_cap_{0};
  std::vector<TaskPath> paths_;
  WindowHistory history_;  ///< written by the window tail only
  double control_interval_ = 0.0;
  ControlHook control_hook_;
};

template <typename Lock>
template <typename EndService>
void DataPath<Lock>::execute(std::size_t task, TupleBatch& batch, EndService&& end_service) {
  TaskPath& p = paths_[task];
  dsps::Bolt& bolt = *core_.task(task).bolt;
  p.probe.stream = batch.stream;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    p.collector.set_context(batch.root_ids[i], batch.root_emit_times[i]);
    batch.borrow_row(i, p.probe);
    bolt.execute(p.probe, p.collector);
  }
  p.collector.clear_context();
  // Flush before the ack: a root acked while its children sit unanchored
  // in an emit buffer would complete its tree early. At batch size 1 the
  // buffer flushed inside execute already.
  flush(task);
  ack(batch, end_service());
}

extern template class DataPath<NoLock>;
extern template class DataPath<std::mutex>;

}  // namespace repro::runtime

#pragma once
// The shared execution substrate behind both engines: topology
// instantiation (component/task tables, per-emitter route/grouping state)
// and worker placement, built once from a Topology + Assignment. The
// discrete-event engine (dsps::Engine) and the event-loop engine
// (rt::AsyncEngine) are thin layers over this core — they own scheduling
// (event queue vs loop threads) and queueing, while the component model,
// routing, grouping semantics and the placement policies live here and
// are therefore identical across backends.
//
// Construction order is part of the deterministic-engine contract and must
// not change: components are laid out spouts first then bolts, each
// component's tasks consecutive in declaration order, and every route's
// grouping state is seeded `seed_base + 31 * emitter_task + 7 * bolt_index`.
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dsps/component.hpp"
#include "dsps/grouping.hpp"
#include "dsps/scheduler.hpp"
#include "dsps/topology.hpp"
#include "runtime/control_surface.hpp"
#include "runtime/tuple_batch.hpp"

namespace repro::runtime {

/// Caller-provided scratch for route_batch so the hot path stays
/// allocation-free in steady state: per-tuple grouping picks, a probe
/// tuple for the per-row grouping select, and the per-destination
/// coalescing lists (row indexes, first-touch order preserved).
struct BatchRouteScratch {
  std::vector<std::size_t> picks;
  dsps::Tuple probe;
  std::vector<std::vector<std::uint32_t>> dest_rows;  ///< indexed by comp-local dest
  std::vector<std::size_t> touched;                   ///< dest indexes, first-pick order
};

struct ComponentInfo {
  std::string name;
  bool is_spout = false;
  std::size_t first_task = 0;   ///< global id of the component's first task
  std::size_t parallelism = 0;
};

/// One outgoing edge of an emitting task: the subscribed stream, the
/// destination component, and this emitter's private grouping state.
struct OutRoute {
  std::string stream;
  std::size_t dest_component = 0;  ///< index into components()
  std::unique_ptr<dsps::GroupingState> grouping;
};

struct TaskInfo {
  std::size_t global_id = 0;
  std::size_t component = 0;  ///< index into components()
  std::size_t comp_index = 0; ///< index within the component
  std::unique_ptr<dsps::Spout> spout;
  std::unique_ptr<dsps::Bolt> bolt;
  std::vector<OutRoute> routes;
};

class TopologyState {
 public:
  /// Instantiate the topology over `assignment` (task -> worker). Grouping
  /// states are seeded from `route_seed_base` so the discrete-event engine
  /// can reproduce its historical draws (it passes the cluster seed) while
  /// the async runtime uses an arbitrary fixed base.
  TopologyState(const dsps::Topology& topo, const dsps::Assignment& assignment,
                std::uint64_t route_seed_base);

  TopologyState(const TopologyState&) = delete;
  TopologyState& operator=(const TopologyState&) = delete;

  /// open()/prepare() every component instance. Call once, after any
  /// engine-side per-task state exists but before execution starts.
  void open_components();

  // --- tables ----------------------------------------------------------
  std::size_t task_count() const { return tasks_.size(); }
  TaskInfo& task(std::size_t global_id) { return tasks_[global_id]; }
  const TaskInfo& task(std::size_t global_id) const { return tasks_[global_id]; }
  const std::vector<ComponentInfo>& components() const { return components_; }
  const ComponentInfo& component_of_task(std::size_t global_id) const {
    return components_[tasks_[global_id].component];
  }
  /// Global task ids hosted by each worker, in task-id order.
  const std::vector<std::vector<std::size_t>>& worker_tasks() const { return worker_tasks_; }
  std::size_t worker_count() const { return worker_tasks_.size(); }

  // --- worker placement ------------------------------------------------
  // The one placement component every engine shares: the task -> worker
  // owner table, each worker's liveness (`alive`: crash/restart) and
  // scaling eligibility (`active`: retire/add, orthogonal to alive), and
  // the supervisor policies that move executors between workers. The
  // owner and flag reads are lock-free relaxed loads, safe from any
  // thread. The mutators are not synchronized: the simulator is
  // single-threaded, and a threaded engine serializes them — and its
  // worker_tasks() reads — under its own placement mutex. Engines keep
  // only the side effects (queue wipes, loss counters, wakeups, stalls).

  /// Hot-path reads for the engines: a task's current worker and a
  /// worker's liveness. Unchecked, like task().
  std::size_t owner(std::size_t global_task) const {
    return owner_[global_task].load(std::memory_order_relaxed);
  }
  bool alive(std::size_t worker) const { return alive_[worker].load(std::memory_order_relaxed); }

  /// Checked forms for the ControlSurface lookups: worker_of_task throws
  /// std::out_of_range on a bad task id, the flags on a bad worker id.
  std::size_t worker_of_task(std::size_t global_task) const {
    if (global_task >= tasks_.size()) {
      throw std::out_of_range("worker_of_task: unknown task " + std::to_string(global_task));
    }
    return owner(global_task);
  }
  bool worker_alive(std::size_t worker) const {
    return alive_.at(worker).load(std::memory_order_relaxed);
  }
  bool worker_active(std::size_t worker) const {
    return active_.at(worker).load(std::memory_order_relaxed);
  }
  /// Crash: mark `worker` dead. Returns false (no-op) if it already was.
  bool mark_dead(std::size_t worker);
  /// Supervisor reassignment of a dead worker's executors onto the host
  /// mask (dsps::plan_crash_reassignment), applied to the tables and
  /// returned. Empty on a total outage: the executors stay on the dead
  /// worker until restart() reclaims them.
  std::vector<dsps::TaskMove> reassign_dead(std::size_t worker);
  /// Rejoin a crashed worker and, unless it is retired, reclaim its
  /// originally assigned executors (queues travel with the task). Returns
  /// the reclaimed task ids, or nullopt (no-op) if it was alive.
  std::optional<std::vector<std::size_t>> restart(std::size_t worker);
  /// Re-activate a retired worker. Returns false (no-op) if it was active.
  bool activate(std::size_t worker);
  /// Gracefully drain `worker` out of the pool: mark it retired and, if
  /// it is alive and hosts executors, move them onto the host mask via
  /// dsps::plan_crash_reassignment. Returns the applied moves, or nullopt
  /// (no-op) if it was already retired. Fail closed: throws
  /// std::invalid_argument, leaving the worker active, when no host would
  /// remain for its executors.
  std::optional<std::vector<dsps::TaskMove>> retire(std::size_t worker);
  /// Planned executor migrations, validate-all-then-apply: every move is
  /// checked first (task range, destination range, destination alive and
  /// active — diagnostics name the field, e.g. "moves[2].to_worker:
  /// worker 5 is retired"), then all are applied in order. Returns the
  /// moves that changed placement, with from_worker filled in.
  std::vector<dsps::TaskMove> migrate(const std::vector<dsps::TaskMove>& moves);

  /// Audit the placement tables: every task's worker in range; the
  /// worker_tasks lists sorted, duplicate-free, consistent with each
  /// task's recorded worker, and covering every task exactly once; no
  /// executor left on a dead worker while another is alive, nor on a
  /// retired (alive) worker while an active one exists. Returns an empty
  /// string when consistent, else a diagnostic — the chaos harness's
  /// routing-consistency invariant.
  std::string placement_audit() const;

  // --- lookups ---------------------------------------------------------
  /// Global task-id range [first, first+parallelism) of a component.
  /// Throws std::invalid_argument for unknown components.
  std::pair<std::size_t, std::size_t> tasks_of(const std::string& component) const;
  /// Workers hosting at least one task of `component` (first-seen order).
  std::vector<std::size_t> workers_of(const std::string& component) const;

  // --- the emit/route path ---------------------------------------------
  /// Fan a tuple emitted by `src_task` out to its destinations: for every
  /// route subscribed to the tuple's stream, ask the grouping for the
  /// destination task indexes and invoke `deliver(dest_global_task)` for
  /// each, in selection order. `picks` is caller-provided scratch so the
  /// hot path stays allocation-free.
  template <typename DeliverFn>
  void route(std::size_t src_task, const dsps::Tuple& t, std::vector<std::size_t>& picks,
             DeliverFn&& deliver) {
    TaskInfo& src = tasks_[src_task];
    for (auto& route : src.routes) {
      if (route.stream != t.stream) continue;
      route.grouping->select(t, picks);
      const ComponentInfo& dst = components_[route.dest_component];
      for (std::size_t di : picks) deliver(dst.first_task + di);
    }
  }

  /// Batched emit->route: fan a whole TupleBatch out with one routing
  /// decision per (edge, destination, batch). For every route subscribed
  /// to the batch's stream, each row's grouping picks are computed in row
  /// order (the per-row select consumes RNG draws in exactly the order
  /// the per-tuple path would), then coalesced per destination task:
  /// `deliver(dest_global_task, rows, may_move)` fires once per
  /// destination that received at least one row, in first-pick order, with
  /// the source row indexes destined for it. `may_move` is true when every
  /// row of the batch is consumed exactly once across all destinations
  /// (single subscribed route, one pick per row) — the caller may then
  /// steal_rows the payloads instead of copying them. At batch size 1 the
  /// (destination, row) sequence is identical to route()'s per-tuple
  /// deliver sequence.
  template <typename DeliverFn>
  void route_batch(std::size_t src_task, TupleBatch& batch, BatchRouteScratch& scratch,
                   DeliverFn&& deliver) {
    TaskInfo& src = tasks_[src_task];
    const std::size_t n = batch.size();
    std::size_t matching = 0;
    for (auto& route : src.routes) {
      if (route.stream == batch.stream) ++matching;
    }
    scratch.probe.stream = batch.stream;
    for (auto& route : src.routes) {
      if (route.stream != batch.stream) continue;
      const ComponentInfo& dst = components_[route.dest_component];
      if (scratch.dest_rows.size() < dst.parallelism) scratch.dest_rows.resize(dst.parallelism);
      std::size_t total_picks = 0;
      for (std::size_t i = 0; i < n; ++i) {
        batch.borrow_row(i, scratch.probe);
        route.grouping->select(scratch.probe, scratch.picks);
        batch.restore_row(i, scratch.probe);
        total_picks += scratch.picks.size();
        for (std::size_t di : scratch.picks) {
          std::vector<std::uint32_t>& rows = scratch.dest_rows[di];
          if (rows.empty()) scratch.touched.push_back(di);
          rows.push_back(static_cast<std::uint32_t>(i));
        }
      }
      const bool may_move = matching == 1 && total_picks == n;
      for (std::size_t di : scratch.touched) {
        deliver(dst.first_task + di, scratch.dest_rows[di], may_move);
        scratch.dest_rows[di].clear();
      }
      scratch.touched.clear();
    }
  }

 private:
  /// Placement candidates: the workers both alive and active.
  std::vector<bool> host_mask() const;

  /// Move one task to a new worker (crash recovery / rebalance). Updates
  /// the owner table and the worker_tasks index (task-id order preserved).
  /// Global task ids are stable, so every route/grouping stays valid; the
  /// local-or-shuffle co-location preference is intentionally NOT
  /// recomputed (like Storm, the locality hint reflects the schedule the
  /// grouping was instantiated with). Throws std::out_of_range /
  /// std::invalid_argument on bad ids.
  void reassign_task(std::size_t global_task, std::size_t new_worker);

  std::vector<ComponentInfo> components_;
  std::vector<TaskInfo> tasks_;
  std::vector<std::vector<std::size_t>> worker_tasks_;
  std::vector<std::atomic<std::size_t>> owner_;  ///< task -> current worker
  std::vector<std::size_t> home_;                ///< task -> originally assigned worker
  std::vector<std::atomic<bool>> alive_;
  std::vector<std::atomic<bool>> active_;
  std::unordered_map<std::string, std::size_t> component_index_;
};

/// The DynamicRatio handle of the (from -> to) dynamic-grouping connection.
/// Throws std::invalid_argument with a diagnostic when `to` is unknown,
/// when no (from -> to) subscription exists, or when the connection exists
/// but is not a dynamic grouping — an unusable nullptr is never returned.
std::shared_ptr<dsps::DynamicRatio> find_dynamic_ratio(const dsps::Topology& topo,
                                                       const std::string& from,
                                                       const std::string& to);

/// Every dynamic-grouping (from -> to) connection of the topology, in
/// bolt/subscription declaration order — what a topology-attached
/// controller discovers and takes over.
std::vector<DynamicEdge> list_dynamic_edges(const dsps::Topology& topo);

/// Shared OutputCollector plumbing: component-relative identity of the
/// emitting task. Engines derive and add their emit/now semantics.
class TaskCollectorBase : public dsps::OutputCollector {
 public:
  TaskCollectorBase(TopologyState* core, std::size_t task) : core_(core), task_(task) {}

  std::size_t task_index() const override { return core_->task(task_).comp_index; }
  std::size_t peer_count() const override { return core_->component_of_task(task_).parallelism; }

 protected:
  TopologyState* core_;
  std::size_t task_;
};

}  // namespace repro::runtime

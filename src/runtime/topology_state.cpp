#include "runtime/topology_state.hpp"

#include <algorithm>
#include <stdexcept>

namespace repro::runtime {

TopologyState::TopologyState(const dsps::Topology& topo, const dsps::Assignment& assignment,
                             std::uint64_t route_seed_base) {
  // Component table: spouts first, bolts after (global task ids follow).
  std::size_t first = 0;
  for (const auto& s : topo.spouts) {
    component_index_[s.name] = components_.size();
    components_.push_back({s.name, true, first, s.parallelism});
    first += s.parallelism;
  }
  for (const auto& b : topo.bolts) {
    component_index_[b.name] = components_.size();
    components_.push_back({b.name, false, first, b.parallelism});
    first += b.parallelism;
  }

  if (assignment.task_to_worker.size() < topo.total_tasks()) {
    throw std::invalid_argument("TopologyState: assignment does not cover all tasks");
  }
  worker_tasks_.resize(assignment.workers());
  alive_ = std::vector<std::atomic<bool>>(assignment.workers());
  active_ = std::vector<std::atomic<bool>>(assignment.workers());
  for (std::size_t w = 0; w < assignment.workers(); ++w) {
    alive_[w].store(true, std::memory_order_relaxed);
    active_[w].store(true, std::memory_order_relaxed);
  }

  tasks_.resize(topo.total_tasks());
  owner_ = std::vector<std::atomic<std::size_t>>(topo.total_tasks());
  home_.assign(assignment.task_to_worker.begin(),
               assignment.task_to_worker.begin() + static_cast<std::ptrdiff_t>(tasks_.size()));
  std::size_t gid = 0;
  auto init_task = [&](std::size_t comp, std::size_t idx) {
    TaskInfo& t = tasks_[gid];
    t.global_id = gid;
    t.component = comp;
    t.comp_index = idx;
    owner_[gid].store(home_[gid], std::memory_order_relaxed);
    worker_tasks_[home_[gid]].push_back(gid);
    ++gid;
  };
  for (std::size_t s = 0; s < topo.spouts.size(); ++s) {
    for (std::size_t i = 0; i < topo.spouts[s].parallelism; ++i) {
      init_task(s, i);
      tasks_[gid - 1].spout = topo.spouts[s].factory();
    }
  }
  for (std::size_t b = 0; b < topo.bolts.size(); ++b) {
    std::size_t comp = topo.spouts.size() + b;
    for (std::size_t i = 0; i < topo.bolts[b].parallelism; ++i) {
      init_task(comp, i);
      tasks_[gid - 1].bolt = topo.bolts[b].factory();
    }
  }

  // Resolve outgoing routes: for each bolt subscription, attach a grouping
  // state to every task of the upstream component.
  for (std::size_t b = 0; b < topo.bolts.size(); ++b) {
    std::size_t dest_comp = topo.spouts.size() + b;
    const dsps::BoltSpec& spec = topo.bolts[b];
    for (const auto& sub : spec.subscriptions) {
      auto src_it = component_index_.find(sub.from_component);
      if (src_it == component_index_.end()) {
        throw std::invalid_argument("TopologyState: unknown upstream " + sub.from_component);
      }
      const ComponentInfo& src = components_[src_it->second];
      const ComponentInfo& dst = components_[dest_comp];
      for (std::size_t i = 0; i < src.parallelism; ++i) {
        TaskInfo& src_task = tasks_[src.first_task + i];
        // Downstream tasks co-located with this emitter (local-or-shuffle).
        std::vector<std::size_t> local;
        for (std::size_t j = 0; j < dst.parallelism; ++j) {
          if (home_[dst.first_task + j] == home_[src_task.global_id]) local.push_back(j);
        }
        OutRoute route;
        route.stream = sub.stream;
        route.dest_component = dest_comp;
        route.grouping =
            dsps::make_grouping_state(sub.grouping, dst.parallelism, std::move(local),
                                      route_seed_base + 31 * src_task.global_id + 7 * b);
        src_task.routes.push_back(std::move(route));
      }
    }
  }
}

void TopologyState::open_components() {
  for (auto& t : tasks_) {
    const ComponentInfo& c = components_[t.component];
    if (t.spout) t.spout->open(t.comp_index, c.parallelism);
    if (t.bolt) t.bolt->prepare(t.comp_index, c.parallelism);
  }
}

void TopologyState::reassign_task(std::size_t global_task, std::size_t new_worker) {
  if (global_task >= tasks_.size()) {
    throw std::out_of_range("reassign_task: unknown task " + std::to_string(global_task));
  }
  if (new_worker >= worker_tasks_.size()) {
    throw std::invalid_argument("reassign_task: unknown worker " + std::to_string(new_worker));
  }
  const std::size_t old_worker = owner_[global_task].load(std::memory_order_relaxed);
  if (old_worker == new_worker) return;
  std::vector<std::size_t>& old_list = worker_tasks_[old_worker];
  old_list.erase(std::remove(old_list.begin(), old_list.end(), global_task), old_list.end());
  std::vector<std::size_t>& new_list = worker_tasks_[new_worker];
  new_list.insert(std::upper_bound(new_list.begin(), new_list.end(), global_task), global_task);
  owner_[global_task].store(new_worker, std::memory_order_relaxed);
}

std::vector<bool> TopologyState::host_mask() const {
  std::vector<bool> hosts(alive_.size(), false);
  for (std::size_t w = 0; w < hosts.size(); ++w) {
    hosts[w] = alive_[w].load(std::memory_order_relaxed) &&
               active_[w].load(std::memory_order_relaxed);
  }
  return hosts;
}

bool TopologyState::mark_dead(std::size_t worker) {
  return alive_.at(worker).exchange(false, std::memory_order_relaxed);
}

std::vector<dsps::TaskMove> TopologyState::reassign_dead(std::size_t worker) {
  // Candidates are alive AND active: a retired worker must not pick up a
  // dead one's executors.
  const std::vector<bool> hosts = host_mask();
  if (std::find(hosts.begin(), hosts.end(), true) == hosts.end()) return {};
  std::vector<dsps::TaskMove> moves = dsps::plan_crash_reassignment(worker_tasks_, worker, hosts);
  for (const dsps::TaskMove& m : moves) reassign_task(m.task, m.to_worker);
  return moves;
}

std::optional<std::vector<std::size_t>> TopologyState::restart(std::size_t worker) {
  if (alive_.at(worker).exchange(true, std::memory_order_relaxed)) return std::nullopt;
  std::vector<std::size_t> reclaimed;
  if (!active_[worker].load(std::memory_order_relaxed)) return reclaimed;  // hosts nothing
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    if (home_[t] == worker && owner_[t].load(std::memory_order_relaxed) != worker) {
      reassign_task(t, worker);
      reclaimed.push_back(t);
    }
  }
  return reclaimed;
}

bool TopologyState::activate(std::size_t worker) {
  return !active_.at(worker).exchange(true, std::memory_order_relaxed);
}

std::optional<std::vector<dsps::TaskMove>> TopologyState::retire(std::size_t worker) {
  if (!active_.at(worker).exchange(false, std::memory_order_relaxed)) return std::nullopt;
  std::vector<dsps::TaskMove> moves;
  if (alive_[worker].load(std::memory_order_relaxed) && !worker_tasks_[worker].empty()) {
    const std::vector<bool> hosts = host_mask();
    if (std::find(hosts.begin(), hosts.end(), true) == hosts.end()) {
      active_[worker].store(true, std::memory_order_relaxed);  // the pool must keep a host
      throw std::invalid_argument("retire_worker: no active worker left to host worker " +
                                  std::to_string(worker) + "'s executors");
    }
    moves = dsps::plan_crash_reassignment(worker_tasks_, worker, hosts);
    for (const dsps::TaskMove& m : moves) reassign_task(m.task, m.to_worker);
  }
  return moves;
}

std::vector<dsps::TaskMove> TopologyState::migrate(const std::vector<dsps::TaskMove>& moves) {
  for (std::size_t i = 0; i < moves.size(); ++i) {
    const dsps::TaskMove& m = moves[i];
    const std::string field = "migrate_tasks: moves[" + std::to_string(i) + "]";
    if (m.task >= tasks_.size()) {
      throw std::invalid_argument(field + ".task: no task " + std::to_string(m.task));
    }
    if (m.to_worker >= alive_.size()) {
      throw std::invalid_argument(field + ".to_worker: no worker " + std::to_string(m.to_worker));
    }
    if (!alive_[m.to_worker].load(std::memory_order_relaxed)) {
      throw std::invalid_argument(field + ".to_worker: worker " + std::to_string(m.to_worker) +
                                  " is dead");
    }
    if (!active_[m.to_worker].load(std::memory_order_relaxed)) {
      throw std::invalid_argument(field + ".to_worker: worker " + std::to_string(m.to_worker) +
                                  " is retired");
    }
  }
  std::vector<dsps::TaskMove> applied;
  for (const dsps::TaskMove& m : moves) {
    const std::size_t from = owner_[m.task].load(std::memory_order_relaxed);
    if (from == m.to_worker) continue;
    reassign_task(m.task, m.to_worker);
    applied.push_back({m.task, from, m.to_worker});
  }
  return applied;
}

std::string TopologyState::placement_audit() const {
  std::vector<std::size_t> seen(tasks_.size(), 0);
  for (std::size_t w = 0; w < worker_tasks_.size(); ++w) {
    const std::vector<std::size_t>& list = worker_tasks_[w];
    for (std::size_t i = 0; i < list.size(); ++i) {
      std::size_t t = list[i];
      if (t >= tasks_.size()) {
        return "worker " + std::to_string(w) + " lists unknown task " + std::to_string(t);
      }
      if (i > 0 && list[i - 1] >= t) {
        return "worker " + std::to_string(w) + " task list not in ascending task-id order";
      }
      const std::size_t owner = owner_[t].load(std::memory_order_relaxed);
      if (owner != w) {
        return "task " + std::to_string(t) + " listed under worker " + std::to_string(w) +
               " but records worker " + std::to_string(owner);
      }
      ++seen[t];
    }
  }
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    const std::size_t owner = owner_[t].load(std::memory_order_relaxed);
    if (owner >= worker_tasks_.size()) {
      return "task " + std::to_string(t) + " records out-of-range worker " +
             std::to_string(owner);
    }
    if (seen[t] == 0) return "task " + std::to_string(t) + " is orphaned (listed by no worker)";
    if (seen[t] > 1) return "task " + std::to_string(t) + " listed by multiple workers";
  }
  bool any_alive = false;
  bool any_host = false;
  for (std::size_t w = 0; w < alive_.size(); ++w) {
    const bool alive = alive_[w].load(std::memory_order_relaxed);
    any_alive = any_alive || alive;
    any_host = any_host || (alive && active_[w].load(std::memory_order_relaxed));
  }
  for (std::size_t w = 0; w < worker_tasks_.size(); ++w) {
    if (worker_tasks_[w].empty()) continue;
    const bool alive = alive_[w].load(std::memory_order_relaxed);
    if (!alive && any_alive) {
      return "dead worker " + std::to_string(w) + " still hosts executors";
    }
    if (alive && !active_[w].load(std::memory_order_relaxed) && any_host) {
      return "retired worker " + std::to_string(w) + " still hosts executors";
    }
  }
  return "";
}

std::pair<std::size_t, std::size_t> TopologyState::tasks_of(const std::string& component) const {
  auto it = component_index_.find(component);
  if (it == component_index_.end()) {
    throw std::invalid_argument("tasks_of: unknown " + component);
  }
  const ComponentInfo& c = components_[it->second];
  return {c.first_task, c.first_task + c.parallelism};
}

std::vector<std::size_t> TopologyState::workers_of(const std::string& component) const {
  auto [lo, hi] = tasks_of(component);
  std::vector<std::size_t> out;
  for (std::size_t t = lo; t < hi; ++t) {
    std::size_t w = owner_[t].load(std::memory_order_relaxed);
    if (std::find(out.begin(), out.end(), w) == out.end()) out.push_back(w);
  }
  return out;
}

std::shared_ptr<dsps::DynamicRatio> find_dynamic_ratio(const dsps::Topology& topo,
                                                       const std::string& from,
                                                       const std::string& to) {
  for (const auto& b : topo.bolts) {
    if (b.name != to) continue;
    for (const auto& sub : b.subscriptions) {
      if (sub.from_component != from) continue;
      if (sub.grouping.kind == dsps::GroupingKind::kDynamic) {
        if (!sub.grouping.ratio) {
          throw std::invalid_argument("dynamic_ratio: connection " + from + " -> " + to +
                                      " has a dynamic grouping but no ratio handle");
        }
        return sub.grouping.ratio;
      }
      throw std::invalid_argument("dynamic_ratio: connection " + from + " -> " + to +
                                  " uses " + dsps::grouping_kind_name(sub.grouping.kind) +
                                  " grouping, not dynamic");
    }
    throw std::invalid_argument("dynamic_ratio: bolt '" + to + "' has no subscription to '" +
                                from + "'");
  }
  throw std::invalid_argument("dynamic_ratio: no bolt named '" + to + "' in topology");
}

std::vector<DynamicEdge> list_dynamic_edges(const dsps::Topology& topo) {
  std::vector<DynamicEdge> edges;
  for (const auto& b : topo.bolts) {
    for (const auto& sub : b.subscriptions) {
      if (sub.grouping.kind == dsps::GroupingKind::kDynamic) {
        edges.push_back({sub.from_component, b.name});
      }
    }
  }
  return edges;
}

}  // namespace repro::runtime

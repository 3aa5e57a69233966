#include "dsps/scheduler.hpp"

#include <stdexcept>

namespace repro::dsps {
namespace {

std::vector<std::size_t> machines_round_robin(std::size_t n_workers, std::size_t n_machines) {
  if (n_workers == 0 || n_machines == 0) {
    throw std::invalid_argument("schedule: need at least one worker and machine");
  }
  std::vector<std::size_t> w2m(n_workers);
  for (std::size_t w = 0; w < n_workers; ++w) w2m[w] = w % n_machines;
  return w2m;
}

}  // namespace

Assignment interleaved_schedule(const Topology& topo, std::size_t n_workers,
                                std::size_t n_machines) {
  Assignment a;
  a.worker_to_machine = machines_round_robin(n_workers, n_machines);
  a.task_to_worker.resize(topo.total_tasks());
  std::size_t base = 0;
  std::size_t offset = 0;
  auto place_component = [&](std::size_t parallelism) {
    for (std::size_t i = 0; i < parallelism; ++i) {
      a.task_to_worker[base + i] = (offset + i) % n_workers;
    }
    base += parallelism;
    ++offset;  // stagger the next component's starting worker
  };
  for (const auto& s : topo.spouts) place_component(s.parallelism);
  for (const auto& b : topo.bolts) place_component(b.parallelism);
  return a;
}

std::vector<TaskMove> plan_crash_reassignment(
    const std::vector<std::vector<std::size_t>>& worker_tasks, std::size_t dead_worker,
    const std::vector<bool>& alive) {
  if (dead_worker >= worker_tasks.size() || alive.size() != worker_tasks.size()) {
    throw std::invalid_argument("plan_crash_reassignment: bad worker tables");
  }
  std::vector<std::size_t> load(worker_tasks.size(), 0);
  bool any_alive = false;
  for (std::size_t w = 0; w < worker_tasks.size(); ++w) {
    load[w] = worker_tasks[w].size();
    if (w != dead_worker && alive[w]) any_alive = true;
  }
  if (!any_alive) {
    throw std::invalid_argument("plan_crash_reassignment: no surviving worker");
  }

  std::vector<TaskMove> moves;
  moves.reserve(worker_tasks[dead_worker].size());
  for (std::size_t task : worker_tasks[dead_worker]) {
    std::size_t best = worker_tasks.size();
    for (std::size_t w = 0; w < worker_tasks.size(); ++w) {
      if (w == dead_worker || !alive[w]) continue;
      if (best == worker_tasks.size() || load[w] < load[best]) best = w;
    }
    moves.push_back({task, dead_worker, best});
    ++load[best];
  }
  return moves;
}

}  // namespace repro::dsps

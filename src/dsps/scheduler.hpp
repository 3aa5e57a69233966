#pragma once
// Task placement: each component's executors go round-robin across worker
// slots, and worker slots round-robin across machines.
#include <cstddef>
#include <vector>

#include "dsps/topology.hpp"

namespace repro::dsps {

struct Assignment {
  std::vector<std::size_t> task_to_worker;     ///< indexed by global task id
  std::vector<std::size_t> worker_to_machine;  ///< indexed by worker id

  std::size_t workers() const { return worker_to_machine.size(); }
};

/// Round-robin within each component, offset so consecutive components
/// start at different workers (spreads heavy bolts more evenly). Global
/// task ids are assigned in topology declaration order (spouts first,
/// then bolts), each component's tasks consecutive. Throws
/// std::invalid_argument when there is no worker or no machine.
Assignment interleaved_schedule(const Topology& topo, std::size_t n_workers,
                                std::size_t n_machines);

/// One executor move of a supervisor reassignment.
struct TaskMove {
  std::size_t task = 0;
  std::size_t from_worker = 0;
  std::size_t to_worker = 0;
};

/// Deterministic supervisor policy for a crashed worker: its executors
/// (in task-id order) each go to the surviving worker with the fewest
/// executors at that point (counting earlier moves), ties broken by the
/// lower worker id. Both engines use this policy, so recovered routing
/// tables are identical across backends. Throws std::invalid_argument
/// when no surviving worker exists.
std::vector<TaskMove> plan_crash_reassignment(
    const std::vector<std::vector<std::size_t>>& worker_tasks, std::size_t dead_worker,
    const std::vector<bool>& alive);

}  // namespace repro::dsps

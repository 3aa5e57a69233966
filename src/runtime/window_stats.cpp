#include "runtime/window_stats.hpp"

#include <algorithm>

namespace repro::runtime {

dsps::TaskWindowStats finalize_task_window(std::size_t task, const std::string& component,
                                           std::size_t comp_index, std::size_t worker,
                                           TaskCounters& c, std::size_t queue_len) {
  dsps::TaskWindowStats s;
  s.task = task;
  s.component = component;
  s.comp_index = comp_index;
  s.worker = worker;
  s.executed = c.executed;
  s.emitted = c.emitted;
  s.received = c.received;
  s.dropped = c.dropped;
  s.dropped_overflow = c.dropped_overflow;
  s.avg_exec_latency = c.executed > 0 ? c.exec_time / static_cast<double>(c.executed) : 0.0;
  s.avg_queue_wait = c.executed > 0 ? c.queue_wait / static_cast<double>(c.executed) : 0.0;
  s.queue_len = queue_len;
  s.bp_stall = c.bp_stall;
  c.reset();
  return s;
}

dsps::WorkerWindowStats finalize_worker_window(std::size_t worker, std::size_t machine,
                                               std::size_t executors, WorkerCounters& c,
                                               std::size_t queue_len, double window_seconds) {
  dsps::WorkerWindowStats s;
  s.worker = worker;
  s.machine = machine;
  s.executors = executors;
  s.executed = c.executed;
  s.emitted = c.emitted;
  s.received = c.received;
  s.avg_proc_time =
      c.executed > 0 ? c.exec_time_sum / static_cast<double>(c.executed) : 0.0;
  s.avg_queue_wait =
      c.executed > 0 ? c.queue_wait_sum / static_cast<double>(c.executed) : 0.0;
  s.queue_len = queue_len;
  s.cpu_share = c.service_seconds / window_seconds;
  s.gc_pause = c.gc_pause;
  // Synthetic resident memory: base footprint + queued tuples.
  s.mem_mb = 128.0 + 24.0 * static_cast<double>(executors) +
             0.004 * static_cast<double>(queue_len);
  s.bp_stall = c.bp_stall;
  c.reset();
  return s;
}

dsps::TopologyWindowStats finalize_topology_window(TopologyCounters& c, double window_seconds,
                                                   std::uint64_t pending) {
  dsps::TopologyWindowStats topo;
  topo.roots_emitted = c.roots_emitted;
  topo.acked = c.acked;
  topo.failed = c.failed;
  topo.dropped_overflow = c.dropped_overflow;
  topo.pending = pending;
  topo.throughput = static_cast<double>(c.acked) / window_seconds;
  topo.avg_complete_latency =
      c.acked > 0 ? c.latency_sum / static_cast<double>(c.acked) : 0.0;
  auto p99_rank = [](std::size_t n) {
    return static_cast<std::size_t>(0.99 * static_cast<double>(n - 1));
  };
  if (c.p99_source == P99Source::kHistogram) {
    if (c.latency_hist.count() > 0) {
      topo.p99_complete_latency = c.latency_hist.element(p99_rank(c.latency_hist.count()));
    }
  } else if (!c.latencies.empty()) {
    // Selection in O(n) instead of a full sort.
    auto nth = c.latencies.begin() + static_cast<std::ptrdiff_t>(p99_rank(c.latencies.size()));
    std::nth_element(c.latencies.begin(), nth, c.latencies.end());
    topo.p99_complete_latency = *nth;
  }
  c.reset();
  return topo;
}

}  // namespace repro::runtime

// Windowed URL Count demo: runs the paper's first evaluation application
// for two simulated minutes under diurnal load and co-location
// interference, then prints throughput/latency and per-counter-task load.
//
// Build & run:   ./build/examples/url_count_demo
#include <cstdio>

#include "common/table.hpp"
#include "exp/scenario_spec.hpp"

using namespace repro;

int main() {
  exp::ScenarioSpec spec;
  spec.name = "url-count-demo";
  spec.seed = 21;
  spec.interference.hog_intensity = 2.4;
  exp::ScenarioRunResult run = exp::run_scenario_with(spec, nullptr);

  const auto& history = run.history;
  std::printf("ran %zu windows of '%s'\n", history.size(),
              exp::app_name(spec.topologies.front().app));

  // Throughput / latency every 10 windows.
  common::Table series({"t(s)", "throughput(tup/s)", "avg_latency(ms)", "p99(ms)", "pending"});
  for (std::size_t i = 9; i < history.size(); i += 10) {
    const auto& w = history[i];
    series.add_row({common::format_double(w.time, 0),
                    common::format_double(w.topology.throughput, 0),
                    common::format_double(w.topology.avg_complete_latency * 1e3, 2),
                    common::format_double(w.topology.p99_complete_latency * 1e3, 2),
                    std::to_string(w.topology.pending)});
  }
  series.print("topology view (every 10s)");

  // Per-counter-task totals over the run, with each task's final worker.
  std::vector<std::uint64_t> received;
  std::vector<std::size_t> worker;
  for (const auto& w : history) {
    for (const auto& t : w.tasks) {
      if (t.component != "counter") continue;
      if (received.size() <= t.comp_index) {
        received.resize(t.comp_index + 1, 0);
        worker.resize(t.comp_index + 1, 0);
      }
      received[t.comp_index] += t.received;
      worker[t.comp_index] = t.worker;
    }
  }
  common::Table per_task({"counter task", "worker", "tuples received"});
  for (std::size_t i = 0; i < received.size(); ++i) {
    per_task.add_row(
        {std::to_string(i), std::to_string(worker[i]), std::to_string(received[i])});
  }
  per_task.print("counter load distribution (uniform dynamic ratio)");

  std::printf("\ntotals: roots=%llu acked=%llu failed=%llu\n",
              (unsigned long long)run.totals.roots_emitted, (unsigned long long)run.totals.acked,
              (unsigned long long)run.totals.failed);
  return 0;
}

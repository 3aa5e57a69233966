// Continuous Queries demo: registers standing range queries over a sensor
// stream, runs the topology, and shows how per-window partial aggregates
// flow to the results stage regardless of how readings are split.
//
// Build & run:   ./build/examples/continuous_query_demo
#include <cstdio>

#include "apps/continuous_query.hpp"
#include "common/table.hpp"
#include "dsps/engine.hpp"
#include "exp/scenario_spec.hpp"

using namespace repro;

int main() {
  apps::ContinuousQueryOptions options;
  options.n_queries = 32;
  options.spout.n_sensors = 48;
  options.spout.seed = 5;
  options.seed = 5;
  apps::BuiltApp app = apps::build_continuous_query(options);

  // Show a few of the standing queries being evaluated.
  std::vector<apps::RangeQuery> queries =
      apps::make_queries(options.n_queries, options.spout.n_sensors, options.seed);
  common::Table qtable({"query", "sensors", "value range"});
  for (std::size_t i = 0; i < 5; ++i) {
    const auto& q = queries[i];
    qtable.add_row({std::to_string(q.id),
                    "[" + std::to_string(q.sensor_lo) + ", " + std::to_string(q.sensor_hi) + "]",
                    "[" + common::format_double(q.value_lo, 1) + ", " +
                        common::format_double(q.value_hi, 1) + "]"});
  }
  qtable.print("first 5 of 32 standing queries");

  // The experiments' standard cluster; the ratio switch below needs a
  // live engine, so the demo drives one itself.
  exp::ScenarioSpec spec;
  spec.name = "cq-demo";
  spec.seed = 5;
  dsps::Engine engine(app.topology, spec.cluster_config());
  engine.run_for(60.0);

  // Skewed split: move most readings to task 0 and verify results keep
  // flowing (partials merge downstream, so correctness is split-invariant).
  app.ratio->set_ratios({0.55, 0.25, 0.15, 0.05});
  engine.run_for(60.0);

  common::Table series({"t(s)", "throughput(tup/s)", "avg_latency(ms)", "query task0..3 received"});
  auto [lo, hi] = engine.tasks_of("query");
  const auto& history = engine.window_history().samples();
  for (std::size_t i = 14; i < history.size(); i += 15) {
    const auto& w = history[i];
    std::string received;
    for (std::size_t t = lo; t < hi; ++t) {
      if (!received.empty()) received += "/";
      received += std::to_string(w.tasks[t].received);
    }
    series.add_row({common::format_double(w.time, 0),
                    common::format_double(w.topology.throughput, 0),
                    common::format_double(w.topology.avg_complete_latency * 1e3, 2), received});
  }
  series.print("run (ratio switched to {0.55,0.25,0.15,0.05} at t=60)");

  std::printf("\ntotals: roots=%llu acked=%llu failed=%llu\n",
              (unsigned long long)engine.totals().roots_emitted,
              (unsigned long long)engine.totals().acked,
              (unsigned long long)engine.totals().failed);
  return 0;
}

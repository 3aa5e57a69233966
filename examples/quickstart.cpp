// Quickstart: build a tiny word-stream topology, run it on a simulated
// 2-machine cluster, flip a dynamic-grouping split ratio mid-run, and
// print per-window stats.
//
// Build & run:   ./build/examples/quickstart
#include <cstdio>
#include <memory>

#include "common/table.hpp"
#include "dsps/engine.hpp"

using namespace repro;

namespace {

/// 500 tuples/s of small integers.
class NumberSpout final : public dsps::Spout {
 public:
  explicit NumberSpout(std::uint64_t seed = 1) : rng_(seed, 0xe1) {}
  double next_delay(sim::SimTime) override { return rng_.exponential(500.0); }
  std::optional<dsps::Values> next(sim::SimTime) override {
    return dsps::Values{static_cast<std::int64_t>(rng_.bounded(1000))};
  }

 private:
  repro::common::Pcg32 rng_;
};

/// Squares each number (80us of simulated CPU per tuple).
class SquareBolt final : public dsps::Bolt {
 public:
  void execute(const dsps::Tuple& input, dsps::OutputCollector& out) override {
    std::int64_t v = input.as_int(0);
    out.emit({v * v});
  }
  double tuple_cost(const dsps::Tuple&) const override { return 80e-6; }
};

/// Terminal sink counting results.
class SinkBolt final : public dsps::Bolt {
 public:
  void execute(const dsps::Tuple&, dsps::OutputCollector&) override { ++count_; }
  double tuple_cost(const dsps::Tuple&) const override { return 10e-6; }
  std::uint64_t count() const { return count_; }

 private:
  std::uint64_t count_ = 0;
};

}  // namespace

int main() {
  // 1. Declare the topology: spout -> square (dynamic grouping) -> sink.
  dsps::TopologyBuilder builder("quickstart");
  builder.set_spout("numbers", [] { return std::make_unique<NumberSpout>(); });
  auto ratio = builder.set_bolt("square", [] { return std::make_unique<SquareBolt>(); }, 4)
                   .dynamic_grouping("numbers");
  builder.set_bolt("sink", [] { return std::make_unique<SinkBolt>(); }, 1)
      .global_grouping("square");

  // 2. Deploy on a simulated cluster: 2 machines x 2 workers, 2 cores each.
  dsps::ClusterConfig cluster;
  cluster.machines = 2;
  cluster.cores_per_machine = 2.0;
  cluster.workers_per_machine = 2;
  cluster.seed = 7;
  dsps::Engine engine(builder.build(), cluster);

  // 3. Run 20 seconds with the default uniform split.
  engine.run_for(20.0);

  // 4. Re-balance on the fly: steer 70% of tuples to task 0, drain task 3.
  ratio->set_ratios({0.7, 0.2, 0.1, 0.0});
  engine.run_for(20.0);

  // 5. Inspect: per-task received counts in the last window, topology view.
  const auto& last = engine.window_history().samples().back();
  common::Table table({"task", "component", "worker", "received", "executed", "avg_exec_ms"});
  for (const auto& t : last.tasks) {
    table.add_row({std::to_string(t.task), t.component, std::to_string(t.worker),
                   std::to_string(t.received), std::to_string(t.executed),
                   common::format_double(t.avg_exec_latency * 1e3, 3)});
  }
  table.print("last window, after re-ratio to {0.7, 0.2, 0.1, 0.0}");

  std::printf("\ntotals: roots=%llu acked=%llu failed=%llu delivered=%llu\n",
              (unsigned long long)engine.totals().roots_emitted,
              (unsigned long long)engine.totals().acked,
              (unsigned long long)engine.totals().failed,
              (unsigned long long)engine.totals().tuples_delivered);
  std::printf("avg complete latency (last window): %.3f ms\n",
              last.topology.avg_complete_latency * 1e3);
  return 0;
}

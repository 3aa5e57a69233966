// Wall-clock runtime demo: the same topology API as the simulator, but
// executed by the async event-loop runtime on real loop threads with
// wall-clock pacing — and the same dynamic grouping re-ratio applied live.
//
// Build & run:   ./build/examples/realtime_runtime_demo
#include <cstdio>

#include "common/table.hpp"
#include "rt/async_engine.hpp"

using namespace repro;

namespace {

class NumberSpout final : public dsps::Spout {
 public:
  double next_delay(sim::SimTime) override { return 1.0 / 3000.0; }
  std::optional<dsps::Values> next(sim::SimTime) override {
    return dsps::Values{static_cast<std::int64_t>(n_++)};
  }

 private:
  std::int64_t n_ = 0;
};

class HashBolt final : public dsps::Bolt {
 public:
  void execute(const dsps::Tuple& in, dsps::OutputCollector& out) override {
    // A little real CPU work per tuple.
    std::uint64_t h = static_cast<std::uint64_t>(in.as_int(0));
    for (int i = 0; i < 50; ++i) h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    out.emit({static_cast<std::int64_t>(h & 0xffff)});
  }
};

class SinkBolt final : public dsps::Bolt {
 public:
  void execute(const dsps::Tuple&, dsps::OutputCollector&) override {}
};

}  // namespace

int main() {
  dsps::TopologyBuilder builder("realtime");
  builder.set_spout("numbers", [] { return std::make_unique<NumberSpout>(); });
  auto ratio = builder.set_bolt("hash", [] { return std::make_unique<HashBolt>(); }, 4)
                   .dynamic_grouping("numbers");
  builder.set_bolt("sink", [] { return std::make_unique<SinkBolt>(); }).global_grouping("hash");

  rt::AsyncConfig cfg;
  cfg.workers = 3;
  rt::AsyncEngine engine(builder.build(), cfg);

  std::printf("running %zu workers on the async runtime for 1s with uniform split...\n",
              cfg.workers);
  engine.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(1000));
  auto mid = engine.executed_per_task();

  std::printf("re-ratio to {0.6, 0.4, 0.0, 0.0} live...\n");
  ratio->set_ratios({0.6, 0.4, 0.0, 0.0});
  std::this_thread::sleep_for(std::chrono::milliseconds(1000));
  engine.stop();

  auto [lo, hi] = engine.tasks_of("hash");
  auto final_counts = engine.executed_per_task();
  common::Table table({"hash task", "phase 1 tuples", "phase 2 tuples"});
  for (std::size_t t = lo; t < hi; ++t) {
    table.add_row({std::to_string(t - lo), std::to_string(mid[t]),
                   std::to_string(final_counts[t] - mid[t])});
  }
  table.print("per-task executed counts (wall clock)");

  rt::RtTotals totals = engine.totals();
  std::printf("\nroots=%llu acked=%llu failed=%llu, mean complete latency=%.3f ms\n",
              (unsigned long long)totals.roots_emitted, (unsigned long long)totals.acked,
              (unsigned long long)totals.failed, engine.mean_complete_latency() * 1e3);
  return 0;
}

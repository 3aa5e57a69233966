// Steady-state allocation check of the sim engine's tuple path: once the
// event heap, the batch slots, the acker table and the per-window vectors
// have grown, a window's worth of tuples runs without touching the heap.
// The window boundary itself allocates (it builds a WindowSample), so the
// counted span runs from just after one boundary to just before the next.
#include <gtest/gtest.h>

#include <cstdint>

#include "dsps/engine.hpp"
#include "support/alloc_counter.hpp"

namespace repro::dsps {
namespace {

/// Fixed-rate spout with empty payloads, so no root's values allocate.
class EmptySpout : public Spout {
 public:
  double next_delay(sim::SimTime) override { return 1.0 / 1500.0; }
  std::optional<Values> next(sim::SimTime) override { return Values{}; }
};

/// Forwards one empty tuple per input.
class ForwardBolt : public Bolt {
 public:
  void execute(const Tuple&, OutputCollector& out) override { out.emit(Values{}); }
};

class SinkBolt : public Bolt {
 public:
  void execute(const Tuple&, OutputCollector&) override {}
};

TEST(EngineAlloc, SteadyStateWindowAllocatesNothing) {
  TopologyBuilder b("alloc");
  b.set_spout("src", [] { return std::make_unique<EmptySpout>(); });
  b.set_bolt("mid", [] { return std::make_unique<ForwardBolt>(); }, 2).shuffle_grouping("src");
  b.set_bolt("sink", [] { return std::make_unique<SinkBolt>(); }, 2).shuffle_grouping("mid");
  ClusterConfig cfg;
  cfg.machines = 2;
  cfg.workers_per_machine = 2;
  cfg.window_seconds = 1.0;
  cfg.batch_size = 1;
  cfg.replay_on_failure = false;
  Engine engine(b.build(), cfg);

  engine.run_until(10.0);  // warm-up, through the window boundary at t = 10
  ASSERT_EQ(engine.window_history().samples().size(), 10u);
  const std::uint64_t executed_before = engine.totals().tuples_executed;

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  engine.run_until(10.999);  // stops short of the boundary at t = 11
  g_count_allocs.store(false);

  EXPECT_EQ(g_alloc_count.load(), 0) << "the steady-state tuple path must not touch the heap";
  EXPECT_EQ(engine.window_history().samples().size(), 10u);
  // Each root is executed twice (mid, then sink).
  EXPECT_GT(engine.totals().tuples_executed - executed_before, 2500u);
  EXPECT_EQ(engine.totals().failed, 0u);
}

}  // namespace
}  // namespace repro::dsps

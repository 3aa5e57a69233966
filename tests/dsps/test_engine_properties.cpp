// Property sweeps over the engine: invariants that must hold for any
// cluster shape, grouping, and parallelism.
#include <gtest/gtest.h>

#include <tuple>

#include "dsps/engine.hpp"

namespace repro::dsps {
namespace {

class PropSpout : public Spout {
 public:
  explicit PropSpout(double rate) : rate_(rate) {}
  double next_delay(sim::SimTime) override { return 1.0 / rate_; }
  std::optional<Values> next(sim::SimTime) override {
    return Values{static_cast<std::int64_t>(n_++)};
  }

 private:
  double rate_;
  std::int64_t n_ = 0;
};

class PropRelay : public Bolt {
 public:
  void execute(const Tuple& in, OutputCollector& out) override { out.emit(in.values); }
  double tuple_cost(const Tuple&) const override { return 60e-6; }
};

class PropSink : public Bolt {
 public:
  void execute(const Tuple&, OutputCollector&) override {}
  double tuple_cost(const Tuple&) const override { return 15e-6; }
};

// (machines, workers_per_machine, relay_parallelism, grouping kind)
using Shape = std::tuple<std::size_t, std::size_t, std::size_t, GroupingKind>;

class EngineConservation : public ::testing::TestWithParam<Shape> {};

TEST_P(EngineConservation, EveryRootAckedEveryDeliveryExecuted) {
  auto [machines, wpm, relays, kind] = GetParam();

  TopologyBuilder b("prop");
  b.set_spout("src", [] { return std::make_unique<PropSpout>(400.0); });
  auto decl = b.set_bolt("relay", [] { return std::make_unique<PropRelay>(); }, relays);
  switch (kind) {
    case GroupingKind::kShuffle: decl.shuffle_grouping("src"); break;
    case GroupingKind::kFields: decl.fields_grouping("src", {0}); break;
    case GroupingKind::kPartialKey: decl.partial_key_grouping("src", {0}); break;
    case GroupingKind::kLocalOrShuffle: decl.local_or_shuffle_grouping("src"); break;
    case GroupingKind::kDynamic: decl.dynamic_grouping("src"); break;
    default: decl.shuffle_grouping("src"); break;
  }
  b.set_bolt("sink", [] { return std::make_unique<PropSink>(); }, 2).shuffle_grouping("relay");

  ClusterConfig cfg;
  cfg.machines = machines;
  cfg.cores_per_machine = 2.0;
  cfg.workers_per_machine = wpm;
  cfg.ack_timeout = 30.0;
  cfg.seed = 7 + machines + relays;
  Engine engine(b.build(), cfg);
  engine.run_for(15.0);

  const EngineTotals& t = engine.totals();
  ASSERT_GT(t.roots_emitted, 1000u);
  EXPECT_EQ(t.failed, 0u);
  EXPECT_EQ(t.tuples_dropped, 0u);
  // Conservation: acked + in-flight == emitted; in-flight bounded by a
  // fraction of a second of traffic.
  EXPECT_LE(t.acked, t.roots_emitted);
  EXPECT_GE(t.acked + 300, t.roots_emitted);
  // Every relay execution emits exactly one tuple to the sink; totals of
  // received tuples over all windows must match executions (mod tail).
  auto [rlo, rhi] = engine.tasks_of("relay");
  auto [slo, shi] = engine.tasks_of("sink");
  std::uint64_t relay_exec = 0, sink_recv = 0;
  for (const auto& w : engine.window_history().samples()) {
    for (std::size_t task = rlo; task < rhi; ++task) relay_exec += w.tasks[task].executed;
    for (std::size_t task = slo; task < shi; ++task) sink_recv += w.tasks[task].received;
  }
  EXPECT_NEAR(static_cast<double>(sink_recv), static_cast<double>(relay_exec),
              static_cast<double>(relay_exec) * 0.02 + 50.0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EngineConservation,
    ::testing::Values(Shape{1, 1, 1, GroupingKind::kShuffle},
                      Shape{1, 2, 4, GroupingKind::kShuffle},
                      Shape{2, 2, 4, GroupingKind::kFields},
                      Shape{3, 2, 4, GroupingKind::kDynamic},
                      Shape{2, 3, 6, GroupingKind::kPartialKey},
                      Shape{4, 1, 3, GroupingKind::kLocalOrShuffle},
                      Shape{2, 2, 8, GroupingKind::kDynamic}));

class EngineDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineDeterminism, IdenticalHistoriesForIdenticalSeeds) {
  auto run = [](std::uint64_t seed) {
    TopologyBuilder b("det");
    b.set_spout("src", [] { return std::make_unique<PropSpout>(300.0); });
    b.set_bolt("relay", [] { return std::make_unique<PropRelay>(); }, 3).shuffle_grouping("src");
    ClusterConfig cfg;
    cfg.machines = 2;
    cfg.cores_per_machine = 2.0;
    cfg.workers_per_machine = 2;
    cfg.gc_interval_mean = 5.0;  // exercise the gc path too
    cfg.seed = seed;
    Engine engine(b.build(), cfg);
    engine.run_for(8.0);
    return engine.window_history().samples();
  };
  auto a = run(GetParam());
  auto c = run(GetParam());
  ASSERT_EQ(a.size(), c.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].topology.acked, c[i].topology.acked);
    EXPECT_DOUBLE_EQ(a[i].topology.avg_complete_latency, c[i].topology.avg_complete_latency);
    for (std::size_t w = 0; w < a[i].workers.size(); ++w) {
      EXPECT_DOUBLE_EQ(a[i].workers[w].avg_proc_time, c[i].workers[w].avg_proc_time);
      EXPECT_DOUBLE_EQ(a[i].workers[w].cpu_share, c[i].workers[w].cpu_share);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineDeterminism, ::testing::Values(1u, 17u, 123456u));

}  // namespace
}  // namespace repro::dsps

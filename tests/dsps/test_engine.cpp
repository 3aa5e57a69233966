// Integration tests of the stream engine on the simulated cluster.
#include "dsps/engine.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "common/rng.hpp"

namespace repro::dsps {
namespace {

/// Fixed-rate spout emitting sequential integers (the first `limit`).
class SeqSpout : public Spout {
 public:
  explicit SeqSpout(double rate, std::int64_t limit = std::numeric_limits<std::int64_t>::max())
      : rate_(rate), limit_(limit) {}
  double next_delay(sim::SimTime) override { return 1.0 / rate_; }
  std::optional<Values> next(sim::SimTime) override {
    if (counter_ >= limit_) return std::nullopt;
    return Values{static_cast<std::int64_t>(counter_++)};
  }
  void on_fail(std::uint64_t) override { ++fails_; }

 private:
  double rate_;
  std::int64_t limit_;
  std::int64_t counter_ = 0;
  std::uint64_t fails_ = 0;
};

/// Pass-through bolt with fixed cost.
class RelayBolt : public Bolt {
 public:
  explicit RelayBolt(double cost = 100e-6) : cost_(cost) {}
  void execute(const Tuple& in, OutputCollector& out) override { out.emit(in.values); }
  double tuple_cost(const Tuple&) const override { return cost_; }

 private:
  double cost_;
};

/// Terminal bolt (no emits).
class SinkBolt : public Bolt {
 public:
  void execute(const Tuple&, OutputCollector&) override {}
  double tuple_cost(const Tuple&) const override { return 20e-6; }
};

struct BuiltTopo {
  Topology topo;
  std::shared_ptr<DynamicRatio> ratio;
};

BuiltTopo two_stage(double rate = 500.0, std::size_t relays = 4, bool dynamic = true,
                    std::int64_t limit = std::numeric_limits<std::int64_t>::max()) {
  TopologyBuilder b("test");
  b.set_spout("src", [rate, limit] { return std::make_unique<SeqSpout>(rate, limit); });
  auto decl = b.set_bolt("relay", [] { return std::make_unique<RelayBolt>(); }, relays);
  BuiltTopo out;
  if (dynamic) {
    out.ratio = decl.dynamic_grouping("src");
  } else {
    decl.shuffle_grouping("src");
  }
  b.set_bolt("sink", [] { return std::make_unique<SinkBolt>(); }, 1).global_grouping("relay");
  out.topo = b.build();
  return out;
}

ClusterConfig small_cluster(std::uint64_t seed = 1) {
  ClusterConfig cfg;
  cfg.machines = 2;
  cfg.cores_per_machine = 2.0;
  cfg.workers_per_machine = 2;
  cfg.window_seconds = 1.0;
  cfg.ack_timeout = 3.0;
  cfg.seed = seed;
  return cfg;
}

TEST(Engine, AllTuplesAckedWhenHealthy) {
  BuiltTopo t = two_stage();
  Engine engine(t.topo, small_cluster());
  engine.run_for(20.0);
  EXPECT_GT(engine.totals().roots_emitted, 9000u);
  // Everything emitted a while ago must be acked; allow in-flight tail.
  EXPECT_GE(engine.totals().acked + 200, engine.totals().roots_emitted);
  EXPECT_EQ(engine.totals().failed, 0u);
}

TEST(Engine, WindowHistoryHasExpectedLength) {
  BuiltTopo t = two_stage();
  Engine engine(t.topo, small_cluster());
  engine.run_for(10.0);
  EXPECT_EQ(engine.window_history().samples().size(), 10u);
  EXPECT_NEAR(engine.window_history().samples().back().time, 10.0, 1e-9);
}

TEST(Engine, BoundedHistoryCapRetainsRecentTail) {
  BuiltTopo t = two_stage();
  ClusterConfig cfg = small_cluster();
  cfg.history_capacity = 8;
  Engine engine(t.topo, cfg);
  engine.run_for(40.0);  // 40 windows through a capacity-8 spine
  const runtime::WindowHistory& h = engine.window_history();
  EXPECT_EQ(h.total(), 40u);
  EXPECT_GE(h.size(), 8u);
  EXPECT_LE(h.size(), 15u);
  EXPECT_LE(h.storage_high_water(), 16u);
  EXPECT_NEAR(h.back().time, 40.0, 1e-9);
  // Global indexing still works.
  EXPECT_NEAR(h.at_global(39).time, 40.0, 1e-9);
  EXPECT_THROW(h.at_global(0), std::out_of_range);
}

TEST(Engine, DeterministicForSameSeed) {
  auto run = [] {
    BuiltTopo t = two_stage();
    Engine engine(t.topo, small_cluster(7));
    engine.run_for(10.0);
    return engine.totals();
  };
  EngineTotals a = run();
  EngineTotals b = run();
  EXPECT_EQ(a.roots_emitted, b.roots_emitted);
  EXPECT_EQ(a.acked, b.acked);
  EXPECT_EQ(a.tuples_delivered, b.tuples_delivered);
}

TEST(Engine, DifferentSeedsDiffer) {
  BuiltTopo t1 = two_stage();
  Engine e1(t1.topo, small_cluster(1));
  e1.run_for(5.0);
  BuiltTopo t2 = two_stage();
  Engine e2(t2.topo, small_cluster(2));
  e2.run_for(5.0);
  // Same arrival schedule (deterministic spout) but different service noise
  // -> different delivered latencies; compare window latency.
  EXPECT_NE(e1.window_history().samples().back().topology.avg_complete_latency,
            e2.window_history().samples().back().topology.avg_complete_latency);
}

TEST(Engine, MachineHogInflatesProcessingTime) {
  BuiltTopo t = two_stage();
  Engine engine(t.topo, small_cluster());
  engine.run_for(10.0);
  // Baseline proc time on relay workers.
  auto relay_workers = engine.workers_of("relay");
  double before = 0.0;
  for (std::size_t w : relay_workers) {
    before += engine.window_history().back().workers[w].avg_proc_time;
  }

  engine.set_machine_hog(engine.worker(relay_workers[0]).machine, 6.0);
  engine.run_for(10.0);
  double after = engine.window_history().back().workers[relay_workers[0]].avg_proc_time;
  double before_w0 = before / relay_workers.size();
  EXPECT_GT(after, before_w0 * 1.5);
}

TEST(Engine, WorkerSlowdownInflatesItsProcTime) {
  BuiltTopo t = two_stage();
  Engine engine(t.topo, small_cluster());
  engine.run_for(8.0);
  std::size_t victim = engine.workers_of("relay")[0];
  double before = engine.window_history().samples().back().workers[victim].avg_proc_time;
  engine.set_worker_slowdown(victim, 4.0);
  engine.run_for(8.0);
  double after = engine.window_history().samples().back().workers[victim].avg_proc_time;
  EXPECT_GT(after, before * 2.5);
}

TEST(Engine, DropInjectionCausesFailures) {
  BuiltTopo t = two_stage();
  Engine engine(t.topo, small_cluster());
  std::size_t victim = engine.workers_of("relay")[0];
  engine.set_worker_drop_prob(victim, 1.0);
  engine.run_for(12.0);  // > ack_timeout so sweeps fire
  EXPECT_GT(engine.totals().failed, 0u);
  EXPECT_GT(engine.totals().tuples_dropped, 0u);
}

/// A drained run holds no batch slot and no pending root: every exit of a
/// batch released its slot exactly once.
void expect_drained(const Engine& engine) {
  EXPECT_EQ(engine.batches_in_flight(), 0u) << "batch slots leaked";
  EXPECT_EQ(engine.pending_roots(), 0u);
}

TEST(Engine, DropFaultDrainReleasesEverySlot) {
  // Batches the drop fault empties (kept == 0) and batches it thins both
  // give their slots back.
  for (std::size_t batch : {1u, 4u}) {
    ClusterConfig cfg = small_cluster();
    cfg.batch_size = batch;
    BuiltTopo t = two_stage(500.0, 4, false, 2000);
    Engine engine(t.topo, cfg);
    engine.set_worker_drop_prob(engine.workers_of("relay")[0], 0.5);
    engine.run_for(20.0);
    EXPECT_GT(engine.totals().tuples_dropped, 0u) << "batch " << batch;
    EXPECT_EQ(engine.totals().acked + engine.totals().failed, 2000u) << "batch " << batch;
    expect_drained(engine);
  }
}

TEST(Engine, CrashRestartDrainReleasesEverySlot) {
  // A crash wipes the victim's queues, and the batches it was serving or
  // holding through a stall come back as stale-incarnation events; each
  // of those exits releases its slot, and replay re-emits the losses.
  for (std::size_t batch : {1u, 4u}) {
    ClusterConfig cfg = small_cluster();
    cfg.batch_size = batch;
    cfg.replay_on_failure = true;
    BuiltTopo t = two_stage(500.0, 4, false, 2000);
    Engine engine(t.topo, cfg);
    const std::size_t victim = engine.workers_of("relay")[0];
    auto [lo, hi] = engine.tasks_of("relay");
    std::size_t victim_task = lo;
    while (engine.worker_of_task(victim_task) != victim) ++victim_task;
    ASSERT_LT(victim_task, hi);
    // Slowed past saturation, so the victim is mid-service when it crashes.
    engine.set_worker_slowdown(victim, 100.0);
    engine.run_for(1.0);
    // First crash: the victim's next batch is waiting out a stall.
    engine.stall_worker(victim, 0.5);
    engine.run_for(0.2);
    engine.crash_worker(victim);
    engine.run_for(1.0);
    engine.restart_worker(victim);
    // Second crash: a batch is in service.
    engine.set_worker_slowdown(victim, 100.0);
    engine.run_for(0.5);
    ASSERT_GT(engine.queue_length_of_task(victim_task), 0u);
    engine.crash_worker(victim);
    engine.run_for(1.0);
    engine.restart_worker(victim);
    engine.run_for(30.0);
    const EngineTotals& totals = engine.totals();
    EXPECT_GT(totals.tuples_lost, 0u) << "batch " << batch;
    EXPECT_GT(totals.replays, 0u) << "batch " << batch;
    EXPECT_EQ(totals.acked + totals.failed, totals.roots_emitted) << "batch " << batch;
    expect_drained(engine);
  }
}

TEST(Engine, DynamicRatioRedirectsTraffic) {
  BuiltTopo t = two_stage();
  Engine engine(t.topo, small_cluster());
  engine.run_for(5.0);
  t.ratio->set_ratios({1.0, 0.0, 0.0, 0.0});
  engine.run_for(5.0);
  const auto& last = engine.window_history().samples().back();
  auto [lo, hi] = engine.tasks_of("relay");
  EXPECT_GT(last.tasks[lo].received, 400u);
  for (std::size_t task = lo + 1; task < hi; ++task) {
    EXPECT_EQ(last.tasks[task].received, 0u);
  }
}

TEST(Engine, DynamicRatioLookup) {
  BuiltTopo t = two_stage();
  Engine engine(t.topo, small_cluster());
  EXPECT_EQ(engine.dynamic_ratio("src", "relay"), t.ratio);
  // Existing but non-dynamic connection, and unknown upstream: both are
  // controller misconfigurations and fail loudly.
  EXPECT_THROW(engine.dynamic_ratio("relay", "sink"), std::invalid_argument);
  EXPECT_THROW(engine.dynamic_ratio("ghost", "relay"), std::invalid_argument);
}

TEST(Engine, StallDelaysProcessing) {
  BuiltTopo t = two_stage();
  Engine engine(t.topo, small_cluster());
  engine.run_for(5.0);
  std::size_t victim = engine.workers_of("relay")[0];
  engine.stall_worker(victim, 3.0);
  engine.run_for(1.0);
  // During the stall the victim's queue builds up.
  const auto& w = engine.window_history().samples().back().workers[victim];
  EXPECT_GT(w.queue_len, 10u);
}

TEST(Engine, FaultPlanRampIncreasesSlowdownGradually) {
  BuiltTopo t = two_stage();
  Engine engine(t.topo, small_cluster());
  FaultPlan plan;
  plan.ramp(1.0, 0, 5.0, 4.0);
  engine.apply_fault_plan(plan);
  engine.run_for(3.0);  // mid-ramp
  double mid = engine.worker(0).slowdown;
  EXPECT_GT(mid, 1.0);
  EXPECT_LT(mid, 5.0);
  engine.run_for(3.0);  // ramp done
  EXPECT_NEAR(engine.worker(0).slowdown, 5.0, 1e-9);
}

TEST(Engine, ControlCallbackFiresAtInterval) {
  BuiltTopo t = two_stage();
  Engine engine(t.topo, small_cluster());
  int calls = 0;
  engine.set_control_hook(2.0, [&](runtime::ControlSurface&) { ++calls; });
  engine.run_for(10.0);
  EXPECT_EQ(calls, 5);
}

TEST(Engine, BackpressureBoundsPending) {
  BuiltTopo t = two_stage(2000.0, 1);  // one relay task, high rate
  ClusterConfig cfg = small_cluster();
  cfg.max_spout_pending = 100;
  cfg.ack_timeout = 60.0;  // no failures; pure backpressure
  Engine engine(t.topo, cfg);
  engine.set_worker_slowdown(engine.workers_of("relay")[0], 50.0);
  engine.run_for(10.0);
  for (const auto& w : engine.window_history().samples()) {
    EXPECT_LE(w.topology.pending, 110u);
  }
}

TEST(Engine, TopologyIntrospection) {
  BuiltTopo t = two_stage();
  Engine engine(t.topo, small_cluster());
  auto [lo, hi] = engine.tasks_of("relay");
  EXPECT_EQ(hi - lo, 4u);
  EXPECT_THROW(engine.tasks_of("nope"), std::invalid_argument);
  EXPECT_EQ(engine.worker_count(), 4u);
  EXPECT_EQ(engine.machine_count(), 2u);
  EXPECT_FALSE(engine.workers_of("relay").empty());
}

TEST(Engine, GcPausesAccountedInWorkerStats) {
  BuiltTopo t = two_stage();
  ClusterConfig cfg = small_cluster();
  cfg.gc_interval_mean = 1.0;
  cfg.gc_pause_mean = 0.05;
  Engine engine(t.topo, cfg);
  engine.run_for(20.0);
  double total_gc = 0.0;
  for (const auto& w : engine.window_history().samples()) {
    for (const auto& ws : w.workers) total_gc += ws.gc_pause;
  }
  EXPECT_GT(total_gc, 0.1);
}

TEST(Engine, CpuUtilReflectsHog) {
  BuiltTopo t = two_stage();
  Engine engine(t.topo, small_cluster());
  engine.set_machine_hog(0, 2.0);  // saturates machine 0 (2 cores)
  engine.run_for(5.0);
  EXPECT_GT(engine.window_history().samples().back().machines[0].cpu_util, 0.95);
}

}  // namespace
}  // namespace repro::dsps

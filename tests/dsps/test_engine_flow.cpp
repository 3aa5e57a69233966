// Bounded data path on the simulated engine: capacity enforcement at the
// emit site, overflow-shed accounting, backpressure stall surfacing, and
// rejection of inconsistent configurations. The seeded chaos suite covers
// the same invariants under crash/recovery; these are the deterministic
// steady-state cases.
#include "dsps/engine.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "runtime/flow_control.hpp"

namespace repro::dsps {
namespace {

/// Emits sequential integers (the first `limit`, so a run can drain).
class SeqSpout : public Spout {
 public:
  explicit SeqSpout(double rate, std::int64_t limit = std::numeric_limits<std::int64_t>::max())
      : rate_(rate), limit_(limit) {}
  double next_delay(sim::SimTime) override { return 1.0 / rate_; }
  std::optional<Values> next(sim::SimTime) override {
    if (counter_ >= limit_) return std::nullopt;
    return Values{static_cast<std::int64_t>(counter_++)};
  }

 private:
  double rate_;
  std::int64_t limit_;
  std::int64_t counter_ = 0;
};

class RelayBolt : public Bolt {
 public:
  void execute(const Tuple& in, OutputCollector& out) override { out.emit(in.values); }
  double tuple_cost(const Tuple&) const override { return 100e-6; }
};

class SinkBolt : public Bolt {
 public:
  void execute(const Tuple&, OutputCollector&) override {}
  double tuple_cost(const Tuple&) const override { return 20e-6; }
};

Topology two_stage(double rate, std::size_t relays,
                   std::int64_t limit = std::numeric_limits<std::int64_t>::max()) {
  TopologyBuilder b("flow-test");
  b.set_spout("src", [rate, limit] { return std::make_unique<SeqSpout>(rate, limit); });
  b.set_bolt("relay", [] { return std::make_unique<RelayBolt>(); }, relays)
      .shuffle_grouping("src");
  b.set_bolt("sink", [] { return std::make_unique<SinkBolt>(); }, 1).global_grouping("relay");
  return b.build();
}

/// A drained run holds no batch slot, parked tuple or pending root: every
/// exit of a batch released its slot.
void expect_drained(const Engine& engine) {
  EXPECT_EQ(engine.batches_in_flight(), 0u) << "batch slots leaked";
  EXPECT_EQ(engine.parked_tuples(), 0u);
  EXPECT_EQ(engine.pending_roots(), 0u);
}

ClusterConfig base_config() {
  ClusterConfig cfg;
  cfg.machines = 2;
  cfg.cores_per_machine = 2.0;
  cfg.workers_per_machine = 2;
  cfg.window_seconds = 1.0;
  cfg.seed = 11;
  return cfg;
}

TEST(EngineFlow, DefaultIsUnboundedWithExposedFlowControl) {
  Engine engine(two_stage(500.0, 4), base_config());
  const runtime::FlowControl* fc = engine.flow_control();
  ASSERT_NE(fc, nullptr);
  EXPECT_FALSE(fc->bounded());
  engine.run_for(5.0);
  EXPECT_EQ(engine.totals().tuples_dropped_overflow, 0u);
  EXPECT_DOUBLE_EQ(fc->total_stall_seconds(), 0.0);
  EXPECT_EQ(engine.parked_tuples(), 0u);
}

TEST(EngineFlow, BlockPolicyRequiresSpoutThrottle) {
  ClusterConfig cfg = base_config();
  cfg.flow = {8, runtime::OverflowPolicy::kBlockUpstream};
  cfg.max_spout_pending = 0;  // unthrottled spout against blocking queues
  EXPECT_THROW(Engine(two_stage(500.0, 4), cfg), std::invalid_argument);
}

TEST(EngineFlow, InvalidFlowConfigRejected) {
  ClusterConfig cfg = base_config();
  cfg.flow.queue_capacity = 16;  // capacity without a bounded policy
  EXPECT_THROW(Engine(two_stage(500.0, 4), cfg), std::invalid_argument);
  cfg.flow = {0, runtime::OverflowPolicy::kDropNewest};  // bounded, no cap
  EXPECT_THROW(Engine(two_stage(500.0, 4), cfg), std::invalid_argument);
}

TEST(EngineFlow, BlockUpstreamKeepsQueuesUnderCapAndLossless) {
  // One overloaded relay task behind a cap-8 blocking queue: the spout is
  // throttled hop by hop, the observable in-queue never exceeds the cap,
  // and nothing is shed.
  ClusterConfig cfg = base_config();
  cfg.flow = {8, runtime::OverflowPolicy::kBlockUpstream};
  cfg.max_spout_pending = 200;
  cfg.ack_timeout = 120.0;  // no timeout churn; pure backpressure
  Engine engine(two_stage(3000.0, 1), cfg);
  engine.set_worker_slowdown(engine.workers_of("relay")[0], 30.0);
  engine.run_for(15.0);

  for (const auto& w : engine.window_history().samples()) {
    for (const auto& t : w.tasks) EXPECT_LE(t.queue_len, 8u);
  }
  const EngineTotals totals = engine.totals();
  EXPECT_EQ(totals.tuples_dropped_overflow, 0u);
  EXPECT_EQ(totals.failed, 0u);
  // The overload actually engaged backpressure...
  EXPECT_GT(engine.flow_control()->total_stall_seconds(), 0.0);
  // ...and the stall is visible in the window samples the control plane reads.
  double window_stall = 0.0;
  for (const auto& w : engine.window_history().samples()) {
    for (const auto& t : w.tasks) window_stall += t.bp_stall;
  }
  EXPECT_GT(window_stall, 0.0);
}

TEST(EngineFlow, DropNewestShedsAndAccounts) {
  ClusterConfig cfg = base_config();
  cfg.flow = {4, runtime::OverflowPolicy::kDropNewest};
  cfg.ack_timeout = 120.0;  // shed roots would time out later; keep counts clean
  Engine engine(two_stage(3000.0, 1), cfg);
  engine.set_worker_slowdown(engine.workers_of("relay")[0], 30.0);
  engine.run_for(15.0);

  const EngineTotals totals = engine.totals();
  EXPECT_GT(totals.tuples_dropped_overflow, 0u);
  EXPECT_EQ(totals.tuples_dropped_overflow, engine.flow_control()->total_dropped_overflow());
  // Window accounting: per-task and topology shed counts both surface the
  // loss (history may miss a partial final window, so <= lifetime total).
  std::uint64_t window_task = 0, window_topo = 0;
  for (const auto& w : engine.window_history().samples()) {
    window_topo += w.topology.dropped_overflow;
    for (const auto& t : w.tasks) window_task += t.dropped_overflow;
  }
  EXPECT_GT(window_task, 0u);
  EXPECT_EQ(window_task, window_topo);
  EXPECT_LE(window_task, totals.tuples_dropped_overflow);
  // Queues still bounded under the shed policy.
  for (const auto& w : engine.window_history().samples()) {
    for (const auto& t : w.tasks) EXPECT_LE(t.queue_len, 4u);
  }
}

TEST(EngineFlow, BatchedCtorValidation) {
  ClusterConfig cfg = base_config();
  cfg.batch_size = 0;  // batches are never empty
  EXPECT_THROW(Engine(two_stage(500.0, 2), cfg), std::invalid_argument);
  // Under kBlockUpstream batches park whole, so one larger than the
  // capacity could never be admitted: rejected at construction.
  cfg = base_config();
  cfg.flow = {8, runtime::OverflowPolicy::kBlockUpstream};
  cfg.max_spout_pending = 200;
  cfg.batch_size = 9;
  EXPECT_THROW(Engine(two_stage(500.0, 2), cfg), std::invalid_argument);
  cfg.batch_size = 8;  // == capacity is the largest admissible batch
  EXPECT_NO_THROW(Engine(two_stage(500.0, 2), cfg));
  // kDropNewest splits batches at admission, so batch > cap is fine.
  cfg = base_config();
  cfg.flow = {4, runtime::OverflowPolicy::kDropNewest};
  cfg.batch_size = 16;
  EXPECT_NO_THROW(Engine(two_stage(500.0, 2), cfg));
}

TEST(EngineFlow, BatchedDropNewestShedsPartialBatchesPerTuple) {
  // Batch 8 against a cap-12 queue: overflowing batches are split — the
  // head that fits transfers, the tail sheds — and every shed row lands
  // in dropped_overflow exactly once (per tuple, not per batch).
  ClusterConfig cfg = base_config();
  cfg.flow = {12, runtime::OverflowPolicy::kDropNewest};
  cfg.batch_size = 8;
  cfg.ack_timeout = 120.0;
  Engine engine(two_stage(3000.0, 1), cfg);
  engine.set_worker_slowdown(engine.workers_of("relay")[0], 30.0);
  engine.run_for(15.0);

  const EngineTotals totals = engine.totals();
  EXPECT_GT(totals.tuples_dropped_overflow, 0u);
  EXPECT_EQ(totals.tuples_dropped_overflow, engine.flow_control()->total_dropped_overflow());
  // Per-tuple accounting: shed + everything still tracked never exceeds
  // what was delivered toward the queues, and the cap held throughout.
  EXPECT_LE(totals.tuples_executed + totals.tuples_dropped_overflow, totals.tuples_delivered);
  for (const auto& w : engine.window_history().samples()) {
    for (const auto& t : w.tasks) EXPECT_LE(t.queue_len, 12u);
  }
  // The shed tail is not a multiple of the batch size in general; with a
  // cap that is not a batch multiple, partial admission must have split
  // at least one batch (a whole-batch-only path would shed multiples of 8
  // against a full queue and keep queue_len at most 8 of the 12).
  std::size_t peak = 0;
  for (const auto& w : engine.window_history().samples()) {
    for (const auto& t : w.tasks) peak = std::max(peak, t.queue_len);
  }
  EXPECT_GT(peak, 8u) << "partial heads should fill the queue past one batch";
}

TEST(EngineFlow, BatchedBlockUpstreamParksWholeBatchesLossless) {
  ClusterConfig cfg = base_config();
  cfg.flow = {8, runtime::OverflowPolicy::kBlockUpstream};
  cfg.max_spout_pending = 200;
  cfg.batch_size = 4;
  cfg.ack_timeout = 120.0;
  Engine engine(two_stage(3000.0, 1), cfg);
  engine.set_worker_slowdown(engine.workers_of("relay")[0], 30.0);
  engine.run_for(15.0);

  // Whole batches park and drain: nothing shed, nothing failed, the cap
  // holds, and the stall the parked batches experienced is surfaced.
  const EngineTotals totals = engine.totals();
  EXPECT_EQ(totals.tuples_dropped_overflow, 0u);
  EXPECT_EQ(totals.failed, 0u);
  EXPECT_GT(engine.flow_control()->total_stall_seconds(), 0.0);
  for (const auto& w : engine.window_history().samples()) {
    for (const auto& t : w.tasks) EXPECT_LE(t.queue_len, 8u);
  }
}

TEST(EngineFlow, BlockUpstreamDrainReleasesEverySlot) {
  // Batches park under kBlockUpstream, drain whole and (at batch > 1)
  // merge into queue tails; once the finite stream is through, every
  // slot is free again.
  for (std::size_t batch : {1u, 4u}) {
    ClusterConfig cfg = base_config();
    cfg.flow = {8, runtime::OverflowPolicy::kBlockUpstream};
    cfg.max_spout_pending = 200;
    cfg.batch_size = batch;
    cfg.ack_timeout = 120.0;
    Engine engine(two_stage(3000.0, 1, 3000), cfg);
    engine.set_worker_slowdown(engine.workers_of("relay")[0], 30.0);
    engine.run_for(1.0);
    EXPECT_GT(engine.batches_in_flight(), 0u) << "batch " << batch;
    engine.run_for(40.0);
    EXPECT_GT(engine.flow_control()->total_stall_seconds(), 0.0) << "batch " << batch;
    EXPECT_EQ(engine.totals().acked, 3000u) << "batch " << batch;
    expect_drained(engine);
  }
}

TEST(EngineFlow, BlockUpstreamCrashDrainReleasesEverySlot) {
  // A crash of the spout's worker kills the batch it has parked at the
  // relay's full queue; that slot is released with it.
  ClusterConfig cfg = base_config();
  cfg.flow = {8, runtime::OverflowPolicy::kBlockUpstream};
  cfg.max_spout_pending = 200;
  cfg.ack_timeout = 5.0;
  Engine engine(two_stage(3000.0, 1, 3000), cfg);
  engine.set_worker_slowdown(engine.workers_of("relay")[0], 30.0);
  engine.run_for(1.0);
  ASSERT_GT(engine.parked_tuples(), 0u);
  const std::size_t spout_worker = engine.workers_of("src")[0];
  engine.crash_worker(spout_worker);
  engine.run_for(1.0);
  engine.restart_worker(spout_worker);
  engine.run_for(40.0);
  const EngineTotals totals = engine.totals();
  EXPECT_GT(totals.tuples_lost, 0u);
  EXPECT_EQ(totals.acked + totals.failed, totals.roots_emitted);
  expect_drained(engine);
}

TEST(EngineFlow, DropNewestDrainReleasesEverySlot) {
  // Shed batches (whole, or the tail of a partially admitted one) give
  // their slots back at the emit site; the shed roots fail at the sweep.
  for (std::size_t batch : {1u, 8u}) {
    ClusterConfig cfg = base_config();
    cfg.flow = {12, runtime::OverflowPolicy::kDropNewest};
    cfg.batch_size = batch;
    cfg.ack_timeout = 5.0;
    Engine engine(two_stage(3000.0, 1, 3000), cfg);
    engine.set_worker_slowdown(engine.workers_of("relay")[0], 30.0);
    engine.run_for(40.0);
    const EngineTotals totals = engine.totals();
    EXPECT_GT(totals.tuples_dropped_overflow, 0u) << "batch " << batch;
    EXPECT_EQ(totals.acked + totals.failed, totals.roots_emitted) << "batch " << batch;
    expect_drained(engine);
  }
}

TEST(EngineFlow, BatchedBoundedRunsAreDeterministic) {
  auto run = [] {
    ClusterConfig cfg = base_config();
    cfg.flow = {16, runtime::OverflowPolicy::kBlockUpstream};
    cfg.max_spout_pending = 200;
    cfg.batch_size = 8;
    Engine engine(two_stage(2000.0, 2), cfg);
    engine.set_worker_slowdown(engine.workers_of("relay")[0], 10.0);
    engine.run_for(10.0);
    return std::make_tuple(engine.totals().roots_emitted, engine.totals().acked,
                           engine.totals().tuples_delivered,
                           engine.flow_control()->total_stall_seconds());
  };
  EXPECT_EQ(run(), run());
}

TEST(EngineFlow, BoundedRunsAreDeterministic) {
  auto run = [] {
    ClusterConfig cfg = base_config();
    cfg.flow = {8, runtime::OverflowPolicy::kBlockUpstream};
    cfg.max_spout_pending = 200;
    Engine engine(two_stage(2000.0, 2), cfg);
    engine.set_worker_slowdown(engine.workers_of("relay")[0], 10.0);
    engine.run_for(10.0);
    return std::make_tuple(engine.totals().roots_emitted, engine.totals().acked,
                           engine.totals().tuples_delivered,
                           engine.flow_control()->total_stall_seconds());
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace repro::dsps

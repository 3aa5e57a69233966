// Async event-loop runtime tests: the same Topology API driven by the
// work-stealing ready-queue scheduler on real loop threads. Assertions are
// conservation/semantics properties, not exact counts (wall-clock
// execution is nondeterministic by nature) — plus the regression suite
// for the kBlockUpstream *task suspension* path: producer/consumer pairs
// sharing a worker and adversarial worker cycles, which would deadlock a
// runtime that blocks threads on full queues, must terminate, stay
// lossless, and never overshoot the queue bound here.
#include "rt/async_engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace repro::rt {
namespace {

class CountingSpout : public dsps::Spout {
 public:
  /// Emits 0, 1, 2, ... at `rate` tuples/s; dries up after `limit` values
  /// when one is given.
  explicit CountingSpout(double rate, std::int64_t limit = -1) : rate_(rate), limit_(limit) {}
  double next_delay(sim::SimTime) override { return 1.0 / rate_; }
  std::optional<dsps::Values> next(sim::SimTime) override {
    if (limit_ >= 0 && n_ >= limit_) return std::nullopt;
    return dsps::Values{static_cast<std::int64_t>(n_++)};
  }

 private:
  double rate_;
  std::int64_t limit_;
  std::int64_t n_ = 0;
};

class RelayBolt : public dsps::Bolt {
 public:
  void execute(const dsps::Tuple& in, dsps::OutputCollector& out) override {
    out.emit(in.values);
  }
};

class CountingSink : public dsps::Bolt {
 public:
  void execute(const dsps::Tuple&, dsps::OutputCollector&) override {
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  static std::atomic<std::uint64_t> count_;
};
std::atomic<std::uint64_t> CountingSink::count_{0};

dsps::Topology relay_topology(double rate, bool dynamic,
                              std::shared_ptr<dsps::DynamicRatio>* ratio_out) {
  dsps::TopologyBuilder b("async-test");
  b.set_spout("src", [rate] { return std::make_unique<CountingSpout>(rate); });
  auto decl = b.set_bolt("relay", [] { return std::make_unique<RelayBolt>(); }, 4);
  if (dynamic) {
    auto ratio = decl.dynamic_grouping("src");
    if (ratio_out) *ratio_out = ratio;
  } else {
    decl.shuffle_grouping("src");
  }
  b.set_bolt("sink", [] { return std::make_unique<CountingSink>(); }, 1)
      .global_grouping("relay");
  return b.build();
}

TEST(AsyncEngine, ProcessesAndAcksTuples) {
  CountingSink::count_ = 0;
  AsyncConfig cfg;
  cfg.workers = 2;
  AsyncEngine engine(relay_topology(2000.0, false, nullptr), cfg);
  engine.run_for(std::chrono::milliseconds(400));

  RtTotals t = engine.totals();
  EXPECT_GT(t.roots_emitted, 100u);
  // Everything except a small in-flight tail must be acked.
  EXPECT_GE(t.acked + 200, t.roots_emitted);
  EXPECT_EQ(t.failed, 0u);
  EXPECT_GE(CountingSink::count_.load(), t.acked);
}

TEST(AsyncEngine, DynamicGroupingRoutesByRatio) {
  CountingSink::count_ = 0;
  std::shared_ptr<dsps::DynamicRatio> ratio;
  AsyncConfig cfg;
  cfg.workers = 3;
  AsyncEngine engine(relay_topology(3000.0, true, &ratio), cfg);
  ASSERT_NE(ratio, nullptr);
  ratio->set_ratios({0.5, 0.5, 0.0, 0.0});
  engine.run_for(std::chrono::milliseconds(400));

  auto [lo, hi] = engine.tasks_of("relay");
  std::vector<std::uint64_t> executed = engine.executed_per_task();
  EXPECT_GT(executed[lo], 50u);
  EXPECT_GT(executed[lo + 1], 50u);
  EXPECT_EQ(executed[lo + 2], 0u);
  EXPECT_EQ(executed[lo + 3], 0u);
  // Equal weights -> near-equal counts (exact per-emitter SWRR).
  double a = static_cast<double>(executed[lo]);
  double b = static_cast<double>(executed[lo + 1]);
  EXPECT_NEAR(a / (a + b), 0.5, 0.02);
}

class WindowCounter : public dsps::Bolt {
 public:
  void execute(const dsps::Tuple&, dsps::OutputCollector&) override {}
  void on_window(sim::SimTime, dsps::OutputCollector&) override {
    windows_.fetch_add(1, std::memory_order_relaxed);
  }
  static std::atomic<int> windows_;
};
std::atomic<int> WindowCounter::windows_{0};

TEST(AsyncEngine, OnWindowFiresFromLoopTimers) {
  WindowCounter::windows_ = 0;

  dsps::TopologyBuilder b("async-window");
  b.set_spout("src", [] { return std::make_unique<CountingSpout>(100.0); });
  b.set_bolt("w", [] { return std::make_unique<WindowCounter>(); }).shuffle_grouping("src");
  AsyncConfig cfg;
  cfg.workers = 1;
  cfg.window_seconds = 0.05;
  AsyncEngine engine(b.build(), cfg);
  engine.run_for(std::chrono::milliseconds(400));
  EXPECT_GE(WindowCounter::windows_.load(), 4);
}

TEST(AsyncEngine, MeanLatencyIsPlausible) {
  AsyncConfig cfg;
  cfg.workers = 2;
  AsyncEngine engine(relay_topology(1000.0, false, nullptr), cfg);
  engine.run_for(std::chrono::milliseconds(300));
  ASSERT_GT(engine.totals().acked, 0u);
  double latency = engine.mean_complete_latency();
  EXPECT_GT(latency, 0.0);
  EXPECT_LT(latency, 0.5);  // relays are trivial; anything near 500ms is a bug
}

/// Busy-waits a fixed time per tuple, so every root's complete latency is
/// at least that long.
class SpinBolt : public dsps::Bolt {
 public:
  static constexpr auto kSpin = std::chrono::microseconds(300);
  void execute(const dsps::Tuple&, dsps::OutputCollector&) override {
    const auto until = std::chrono::steady_clock::now() + kSpin;
    while (std::chrono::steady_clock::now() < until) {
    }
  }
};

TEST(AsyncEngine, WindowP99ComesFromTheLatencyHistogram) {
  // The engine reads each window's p99 from a fixed-memory histogram,
  // within 1/128 (plus 1 ns) of the exact element. Every root here spends
  // at least kSpin in service, so no window with acks can read less than
  // kSpin minus that error, and a window without acks reads 0.
  dsps::TopologyBuilder b("async-p99");
  b.set_spout("src", [] { return std::make_unique<CountingSpout>(500.0); });
  b.set_bolt("spin", [] { return std::make_unique<SpinBolt>(); }).shuffle_grouping("src");
  AsyncConfig cfg;
  cfg.workers = 1;
  cfg.window_seconds = 0.05;
  AsyncEngine engine(b.build(), cfg);
  engine.run_for(std::chrono::milliseconds(500));

  const double spin = std::chrono::duration<double>(SpinBolt::kSpin).count();
  std::size_t with_acks = 0;
  for (const dsps::WindowSample& w : engine.window_history().samples()) {
    if (w.topology.acked == 0) {
      EXPECT_EQ(w.topology.p99_complete_latency, 0.0) << "t = " << w.time;
      continue;
    }
    ++with_acks;
    EXPECT_GE(w.topology.avg_complete_latency, spin) << "t = " << w.time;
    EXPECT_GE(w.topology.p99_complete_latency, spin * (1.0 - 1.0 / 128.0) - 1e-9)
        << "t = " << w.time;
    EXPECT_LT(w.topology.p99_complete_latency, cfg.ack_timeout) << "t = " << w.time;
  }
  EXPECT_GE(with_acks, 5u);
}

TEST(AsyncEngine, StopIsIdempotentAndRestartForbidden) {
  AsyncConfig cfg;
  cfg.workers = 1;
  AsyncEngine engine(relay_topology(500.0, false, nullptr), cfg);
  engine.start();
  engine.stop();
  engine.stop();  // no-op
  EXPECT_THROW(engine.start(), std::logic_error);
}

TEST(AsyncEngine, HistoryIsBoundedByDefault) {
  // A long-lived runtime must not grow metrics memory with run length:
  // the default config bounds the window-history spine.
  AsyncConfig cfg;
  EXPECT_GT(cfg.history_capacity, 0u);

  cfg.workers = 1;
  cfg.window_seconds = 0.002;  // very fast windows to collect hundreds
  cfg.history_capacity = 32;
  AsyncEngine engine(relay_topology(50.0, false, nullptr), cfg);
  engine.run_for(std::chrono::milliseconds(1500));

  const runtime::WindowHistory& h = engine.window_history();
  EXPECT_GT(h.total(), 64u) << "run too short to exercise eviction";
  // Flat memory high-water mark: never more than 2*capacity retained.
  EXPECT_LE(h.storage_high_water(), 64u);
  EXPECT_LE(h.size(), 63u);
  EXPECT_GE(h.size(), 32u);
  // The retained block is the most recent tail with stable indices.
  EXPECT_EQ(h.first_index() + h.size(), h.total());
  EXPECT_DOUBLE_EQ(h.at_global(h.total() - 1).time, h.back().time);
}

TEST(AsyncEngine, HistoryCapZeroOptsOutOfBounding) {
  AsyncConfig cfg;
  cfg.workers = 1;
  cfg.window_seconds = 0.005;
  cfg.history_capacity = 0;  // explicit opt-out: keep every window
  AsyncEngine engine(relay_topology(50.0, false, nullptr), cfg);
  engine.run_for(std::chrono::milliseconds(300));
  const runtime::WindowHistory& h = engine.window_history();
  EXPECT_FALSE(h.bounded());
  EXPECT_EQ(h.first_index(), 0u);
  EXPECT_EQ(h.size(), h.total());
}

TEST(AsyncEngine, DynamicEdgesDiscovered) {
  AsyncConfig cfg;
  cfg.workers = 2;
  AsyncEngine dynamic_engine(relay_topology(100.0, true, nullptr), cfg);
  auto edges = dynamic_engine.dynamic_edges();
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].from, "src");
  EXPECT_EQ(edges[0].to, "relay");

  AsyncEngine static_engine(relay_topology(100.0, false, nullptr), cfg);
  EXPECT_TRUE(static_engine.dynamic_edges().empty());
}

class SlowSink : public dsps::Bolt {
 public:
  void execute(const dsps::Tuple&, dsps::OutputCollector&) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
};

// Fast spout + fast relays funneling into one slow sink task: the sink's
// in-queue is the bottleneck, so a bounded queue there must fill.
dsps::Topology slow_sink_topology(double rate) {
  dsps::TopologyBuilder b("async-flow-test");
  b.set_spout("src", [rate] { return std::make_unique<CountingSpout>(rate); });
  b.set_bolt("relay", [] { return std::make_unique<RelayBolt>(); }, 2).shuffle_grouping("src");
  b.set_bolt("sink", [] { return std::make_unique<SlowSink>(); }, 1).global_grouping("relay");
  return b.build();
}

TEST(AsyncEngine, BoundedBlockSuspendsTasksAndStaysLossless) {
  // kBlockUpstream under overload: the emitter is *suspended* (scheduler
  // counters move) instead of blocking a thread, the run terminates, and
  // nothing is shed. The queue bound is a hard invariant on this backend —
  // no escape valve ever pushes past it — so every sampled queue depth
  // obeys the cap.
  AsyncConfig cfg;
  cfg.workers = 3;
  // Explicit loop threads: on a small host the default (hw_concurrency)
  // can be 1, where a single loop thread self-clocks — the spout only
  // polls between sink steps, so the queue never fills and the suspend
  // path under test never engages.
  cfg.threads = 3;
  cfg.window_seconds = 0.05;
  cfg.flow = {16, runtime::OverflowPolicy::kBlockUpstream};
  cfg.max_spout_pending = 256;
  AsyncEngine engine(slow_sink_topology(5000.0), cfg);
  engine.run_for(std::chrono::milliseconds(500));

  const runtime::FlowControl* fc = engine.flow_control();
  ASSERT_NE(fc, nullptr);
  EXPECT_TRUE(fc->bounded());
  RtTotals t = engine.totals();
  EXPECT_GT(t.roots_emitted, 50u);
  EXPECT_EQ(t.dropped_overflow, 0u);
  // Overload engaged the suspension path, and every suspend was matched
  // by a resume by the time the drain finished.
  EXPECT_GT(t.suspends, 0u);
  EXPECT_GT(t.resumes, 0u);
  EXPECT_GT(fc->total_stall_seconds(), 0.0);
  // Hard queue bound: no sampled in-queue ever exceeds the capacity.
  for (const auto& w : engine.window_history().samples()) {
    for (const auto& ts : w.tasks) {
      EXPECT_LE(ts.queue_len, 16u) << "task " << ts.task << " overshot the bound";
    }
  }
}

TEST(AsyncEngine, BoundedDropShedsUnderOverload) {
  AsyncConfig cfg;
  cfg.workers = 3;
  cfg.threads = 3;  // see BoundedBlockSuspendsTasksAndStaysLossless
  cfg.flow = {4, runtime::OverflowPolicy::kDropNewest};
  cfg.ack_timeout = 30.0;  // shed roots would fail later; keep counts clean
  AsyncEngine engine(slow_sink_topology(5000.0), cfg);
  engine.run_for(std::chrono::milliseconds(500));

  RtTotals t = engine.totals();
  EXPECT_GT(t.dropped_overflow, 0u);
  EXPECT_EQ(t.dropped_overflow, engine.flow_control()->total_dropped_overflow());
  EXPECT_GT(t.executed, 0u);
}

TEST(AsyncEngine, BatchedDropShedsPartialBatchesPerTuple) {
  // batch 8 against a cap-6 drop queue: a full batch can never be
  // admitted whole, so every admission splits — heads fill the queue,
  // tails land in dropped_overflow per tuple.
  AsyncConfig cfg;
  cfg.workers = 3;
  cfg.threads = 3;  // see BoundedBlockSuspendsTasksAndStaysLossless
  cfg.flow = {6, runtime::OverflowPolicy::kDropNewest};
  cfg.ack_timeout = 30.0;
  cfg.batch_size = 8;
  AsyncEngine engine(slow_sink_topology(5000.0), cfg);
  engine.run_for(std::chrono::milliseconds(500));

  RtTotals t = engine.totals();
  EXPECT_GT(t.dropped_overflow, 0u);
  EXPECT_EQ(t.dropped_overflow, engine.flow_control()->total_dropped_overflow());
  EXPECT_GT(t.executed, 0u);
  // Partial admission happened: the sink behind the cap-6 queue executed
  // tuples even though a full batch exceeds the capacity — heads were
  // admitted while tails shed.
  auto [sink_lo, sink_hi] = engine.tasks_of("sink");
  std::uint64_t sink_executed = 0;
  for (std::size_t task = sink_lo; task < sink_hi; ++task) {
    sink_executed += engine.executed_per_task()[task];
  }
  EXPECT_GT(sink_executed, 0u);
}

TEST(AsyncEngine, BatchedBlockParksWholeBatchesLossless) {
  AsyncConfig cfg;
  cfg.workers = 3;
  cfg.threads = 3;  // see BoundedBlockSuspendsTasksAndStaysLossless
  cfg.flow = {16, runtime::OverflowPolicy::kBlockUpstream};
  cfg.max_spout_pending = 256;
  cfg.batch_size = 8;
  AsyncEngine engine(slow_sink_topology(5000.0), cfg);
  engine.run_for(std::chrono::milliseconds(500));

  RtTotals t = engine.totals();
  EXPECT_GT(t.roots_emitted, 50u);
  EXPECT_EQ(t.dropped_overflow, 0u);
  EXPECT_GT(engine.flow_control()->total_stall_seconds(), 0.0);
}

// --- the task-suspension regression suite --------------------------------
// Configurations where backpressure that blocks threads would need escape
// valves (a push that may not wait on its own thread, sliced waits) and
// could overshoot the queue bound. Task suspension has no such cases:
// they must all terminate lossless with the bound intact.

TEST(AsyncEngine, ProducerConsumerSharingOneWorkerTerminates) {
  // workers=1: every executor — spout, relays, slow sink — lives on the
  // same logical worker, so a blocking emitter would be the very thread
  // that must drain the full queue. Here the emitter suspends and the
  // loop thread simply runs the sink task.
  CountingSink::count_ = 0;
  AsyncConfig cfg;
  cfg.workers = 1;
  cfg.threads = 1;  // single loop thread: the hardest interleaving
  cfg.flow = {8, runtime::OverflowPolicy::kBlockUpstream};
  cfg.max_spout_pending = 64;
  AsyncEngine engine(slow_sink_topology(5000.0), cfg);
  engine.run_for(std::chrono::milliseconds(500));

  RtTotals t = engine.totals();
  EXPECT_GT(t.roots_emitted, 20u) << "the pipeline must make progress on one thread";
  EXPECT_EQ(t.dropped_overflow, 0u);
  EXPECT_GT(t.executed, 0u);
}

class FanoutBolt : public dsps::Bolt {
 public:
  void execute(const dsps::Tuple& in, dsps::OutputCollector& out) override {
    // Amplify: every input makes two outputs, so every hop pressures the
    // next one's bounded queue.
    out.emit(in.values);
    out.emit(in.values);
  }
};

TEST(AsyncEngine, AdversarialCycleChainDrains) {
  // A 4-hop amplifying chain with tiny caps, interleaved over 2 workers:
  // hop i's worker pushes into hop i+1 hosted on the other worker and
  // vice versa — a worker wait cycle for any runtime that blocks threads
  // on full queues. A finite stream is drained to quiescence (every root
  // acked, or a deadline): a stop mid-run could legitimately catch a task
  // suspended, but once every root is acked nothing is parked, so
  // suspends == resumes exactly. Repeated, because a resume lost to a
  // race with the suspending step wedges the chain only now and then.
  static constexpr std::int64_t kRoots = 200;
  std::uint64_t suspends = 0;
  for (int rep = 0; rep < 20; ++rep) {
    CountingSink::count_ = 0;
    dsps::TopologyBuilder b("async-cycle");
    b.set_spout("src", [] { return std::make_unique<CountingSpout>(4000.0, kRoots); });
    b.set_bolt("f1", [] { return std::make_unique<FanoutBolt>(); }, 2).shuffle_grouping("src");
    b.set_bolt("f2", [] { return std::make_unique<FanoutBolt>(); }, 2).shuffle_grouping("f1");
    b.set_bolt("f3", [] { return std::make_unique<FanoutBolt>(); }, 2).shuffle_grouping("f2");
    b.set_bolt("sink", [] { return std::make_unique<CountingSink>(); }, 1)
        .global_grouping("f3");
    AsyncConfig cfg;
    cfg.workers = 2;
    cfg.threads = 2;
    cfg.flow = {4, runtime::OverflowPolicy::kBlockUpstream};
    cfg.max_spout_pending = 32;
    // A wedged chain must show up as a missed drain deadline, not as roots
    // failing at the ack timeout while their batches stay parked.
    cfg.ack_timeout = 60.0;
    AsyncEngine engine(b.build(), cfg);
    engine.start();
    bool drained = false;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!drained && std::chrono::steady_clock::now() < deadline) {
      RtTotals t = engine.totals();
      drained = t.roots_emitted == static_cast<std::uint64_t>(kRoots) &&
                t.acked + t.failed == t.roots_emitted;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    engine.stop();
    const RtTotals t = engine.totals();
    ASSERT_TRUE(drained) << "rep " << rep << ": amplifying chain wedged with " << t.acked
                         << " of " << t.roots_emitted << " roots acked, " << t.suspends
                         << " suspends vs " << t.resumes << " resumes";
    EXPECT_EQ(t.failed, 0u) << "rep " << rep;
    EXPECT_EQ(t.dropped_overflow, 0u) << "rep " << rep;
    // 8x amplification reached the sink for every root.
    EXPECT_EQ(CountingSink::count_.load(), 8u * kRoots) << "rep " << rep;
    EXPECT_EQ(t.suspends, t.resumes) << "rep " << rep << ": every suspend resumed by quiesce";
    suspends += t.suspends;
  }
  EXPECT_GT(suspends, 0u) << "tiny caps must engage the suspension path";
}

class RecordingSink : public dsps::Bolt {
 public:
  void execute(const dsps::Tuple& in, dsps::OutputCollector&) override {
    std::lock_guard<std::mutex> lock(mutex_);
    values_.push_back(in.as_int(0));
    // A slow consumer, so the producer side genuinely parks batches.
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  static std::vector<std::int64_t> take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::move(values_);
  }
  static std::mutex mutex_;
  static std::vector<std::int64_t> values_;
};
std::mutex RecordingSink::mutex_;
std::vector<std::int64_t> RecordingSink::values_;

TEST(AsyncEngine, CreditReleaseWakeupOrderingIsFifo) {
  // Single ascending spout -> one relay -> one slow bounded sink: every
  // tuple takes the same path, so the sink must observe values in emit
  // order even though most deliveries go through park -> credit-release ->
  // re-delivery. A limiter that re-admitted parked batches out of FIFO
  // order (or let fresh emits bypass the parked queue) would reorder.
  (void)RecordingSink::take();
  dsps::TopologyBuilder b("async-fifo");
  b.set_spout("src", [] { return std::make_unique<CountingSpout>(5000.0); });
  b.set_bolt("relay", [] { return std::make_unique<RelayBolt>(); }, 1).global_grouping("src");
  b.set_bolt("sink", [] { return std::make_unique<RecordingSink>(); }, 1)
      .global_grouping("relay");
  AsyncConfig cfg;
  cfg.workers = 2;
  cfg.threads = 2;  // see BoundedBlockSuspendsTasksAndStaysLossless
  cfg.flow = {6, runtime::OverflowPolicy::kBlockUpstream};
  cfg.max_spout_pending = 64;
  AsyncEngine engine(b.build(), cfg);
  engine.run_for(std::chrono::milliseconds(500));

  std::vector<std::int64_t> seen = RecordingSink::take();
  ASSERT_GT(seen.size(), 50u);
  for (std::size_t i = 1; i < seen.size(); ++i) {
    ASSERT_EQ(seen[i], seen[i - 1] + 1)
        << "credit-release wakeups must preserve per-path FIFO order at index " << i;
  }
  EXPECT_GT(engine.totals().suspends, 0u) << "the ordering must have been tested under parking";
}

// --- validation & observability ----------------------------------------

TEST(AsyncEngine, CtorValidation) {
  AsyncConfig cfg;
  cfg.workers = 1;
  cfg.batch_size = 0;
  EXPECT_THROW(AsyncEngine(relay_topology(100.0, false, nullptr), cfg), std::invalid_argument);

  cfg = AsyncConfig{};
  cfg.workers = 1;
  cfg.flow = {8, runtime::OverflowPolicy::kBlockUpstream};
  cfg.max_spout_pending = 100;
  cfg.batch_size = 9;  // parks whole, could never be admitted
  EXPECT_THROW(AsyncEngine(relay_topology(100.0, false, nullptr), cfg), std::invalid_argument);
  cfg.batch_size = 8;
  EXPECT_NO_THROW(AsyncEngine(relay_topology(100.0, false, nullptr), cfg));

  cfg = AsyncConfig{};
  cfg.workers = 1;
  cfg.flow = {16, runtime::OverflowPolicy::kBlockUpstream};
  cfg.max_spout_pending = 0;  // unthrottled spout against blocking queues
  EXPECT_THROW(AsyncEngine(relay_topology(100.0, false, nullptr), cfg), std::invalid_argument);

  cfg = AsyncConfig{};
  cfg.workers = 1;
  cfg.flow.queue_capacity = 8;  // capacity without a bounded policy
  EXPECT_THROW(AsyncEngine(relay_topology(100.0, false, nullptr), cfg), std::invalid_argument);

  cfg = AsyncConfig{};
  cfg.workers = 0;  // no placement domain
  EXPECT_THROW(AsyncEngine(relay_topology(100.0, false, nullptr), cfg), std::invalid_argument);
}

TEST(AsyncEngine, TasksOfAndIntrospection) {
  AsyncConfig cfg;
  cfg.workers = 2;
  AsyncEngine engine(relay_topology(100.0, false, nullptr), cfg);
  auto [lo, hi] = engine.tasks_of("relay");
  EXPECT_EQ(hi - lo, 4u);
  EXPECT_THROW(engine.tasks_of("nope"), std::invalid_argument);
  EXPECT_EQ(engine.worker_count(), 2u);
}

TEST(AsyncEngine, SchedulerCountersSurface) {
  AsyncConfig cfg;
  cfg.workers = 2;
  cfg.window_seconds = 0.05;
  AsyncEngine engine(relay_topology(2000.0, false, nullptr), cfg);
  engine.run_for(std::chrono::milliseconds(400));

  // Through totals().
  RtTotals t = engine.totals();
  EXPECT_GT(t.wakeups_productive, 0u);
  EXPECT_GT(t.ready_peak, 0u);

  // Through the backend-agnostic control surface.
  const runtime::ControlSurface& surface = engine;
  dsps::SchedulerWindowStats s = surface.scheduler_totals();
  EXPECT_EQ(s.wakeups_productive, t.wakeups_productive);
  EXPECT_EQ(s.ready_peak, t.ready_peak);

  // And as per-window deltas in the metrics spine: the sum over windows
  // is bounded by the lifetime totals (the tail past the last boundary is
  // not yet drained into a window).
  std::uint64_t windowed = 0;
  for (const auto& w : engine.window_history().samples()) {
    windowed += w.scheduler.wakeups_productive;
  }
  EXPECT_GT(windowed, 0u);
  EXPECT_LE(windowed, t.wakeups_productive);
}

TEST(AsyncEngine, ThreadsDecoupledFromWorkers) {
  // 8 logical workers on 2 loop threads: placement introspection still
  // reports 8 workers, and the topology processes normally.
  CountingSink::count_ = 0;
  AsyncConfig cfg;
  cfg.workers = 8;
  cfg.threads = 2;
  AsyncEngine engine(relay_topology(2000.0, false, nullptr), cfg);
  EXPECT_EQ(engine.worker_count(), 8u);
  engine.run_for(std::chrono::milliseconds(400));
  EXPECT_GT(engine.totals().acked, 100u);
  EXPECT_TRUE(engine.placement_audit().empty()) << engine.placement_audit();
}

}  // namespace
}  // namespace repro::rt

// Tests for the shared runtime core (src/runtime): the control surface
// both engines implement, cross-backend routing parity, the
// deterministic-engine regression, and the thread-safety of the
// dynamic-grouping ratio handle.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "control/baseline_predictors.hpp"
#include "control/controller.hpp"
#include "control/controller_factory.hpp"
#include "control/drl_controller.hpp"
#include "control/rate_controller.hpp"
#include "dsps/engine.hpp"
#include "rt/async_engine.hpp"
#include "runtime/control_surface.hpp"
#include "runtime/topology_state.hpp"

namespace repro {
namespace {

class PacedSpout : public dsps::Spout {
 public:
  /// Emits value 0..limit-1 at `rate` tuples/s, then dries up.
  PacedSpout(double rate, std::int64_t limit) : rate_(rate), limit_(limit) {}
  double next_delay(sim::SimTime) override { return 1.0 / rate_; }
  std::optional<dsps::Values> next(sim::SimTime) override {
    if (n_ >= limit_) return std::nullopt;
    return dsps::Values{n_++};
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

class SinkBolt : public dsps::Bolt {
 public:
  void execute(const dsps::Tuple&, dsps::OutputCollector&) override {}
};

struct BuiltTopo {
  dsps::Topology topo;
  std::shared_ptr<dsps::DynamicRatio> ratio;
};

/// src -> relay(4, configurable grouping) -> sink(global).
BuiltTopo relay_topo(double rate, std::int64_t limit, const std::string& grouping) {
  dsps::TopologyBuilder b("core-test");
  b.set_spout("src", [rate, limit] { return std::make_unique<PacedSpout>(rate, limit); });
  auto decl = b.set_bolt("relay", [] { return std::make_unique<RelayBolt>(); }, 4);
  BuiltTopo out;
  if (grouping == "dynamic") {
    out.ratio = decl.dynamic_grouping("src");
  } else if (grouping == "fields") {
    decl.fields_grouping("src", {0});
  } else {
    decl.shuffle_grouping("src");
  }
  b.set_bolt("sink", [] { return std::make_unique<SinkBolt>(); }).global_grouping("relay");
  out.topo = b.build();
  return out;
}

dsps::ClusterConfig sim_cluster() {
  dsps::ClusterConfig cfg;
  cfg.machines = 2;
  cfg.workers_per_machine = 2;
  cfg.window_seconds = 0.5;
  cfg.gc_interval_mean = 5.0;  // exercise the gc/stall path too
  return cfg;
}

// --- determinism regression --------------------------------------------

/// Two same-seed simulated runs must be bit-identical, window by window —
/// the runtime-core refactor must never perturb the deterministic engine.
TEST(RuntimeCore, SimEngineIsDeterministic) {
  auto run = [](std::uint64_t seed) {
    BuiltTopo t = relay_topo(800.0, 1 << 30, "dynamic");
    dsps::ClusterConfig cfg = sim_cluster();
    cfg.seed = seed;
    auto engine = std::make_unique<dsps::Engine>(t.topo, cfg);
    engine->run_for(4.0);
    t.ratio->set_ratios({0.7, 0.3, 0.0, 0.0});
    engine->run_for(4.0);
    return engine;
  };
  auto a = run(7);
  auto b = run(7);
  auto c = run(8);

  ASSERT_EQ(a->history().size(), b->history().size());
  for (std::size_t i = 0; i < a->history().size(); ++i) {
    const auto& wa = a->history()[i];
    const auto& wb = b->history()[i];
    EXPECT_EQ(wa.topology.acked, wb.topology.acked);
    EXPECT_EQ(wa.topology.throughput, wb.topology.throughput);  // bit-exact double
    EXPECT_EQ(wa.topology.avg_complete_latency, wb.topology.avg_complete_latency);
    EXPECT_EQ(wa.topology.p99_complete_latency, wb.topology.p99_complete_latency);
    ASSERT_EQ(wa.tasks.size(), wb.tasks.size());
    for (std::size_t t = 0; t < wa.tasks.size(); ++t) {
      EXPECT_EQ(wa.tasks[t].executed, wb.tasks[t].executed);
      EXPECT_EQ(wa.tasks[t].avg_exec_latency, wb.tasks[t].avg_exec_latency);
    }
    for (std::size_t w = 0; w < wa.workers.size(); ++w) {
      EXPECT_EQ(wa.workers[w].avg_proc_time, wb.workers[w].avg_proc_time);
    }
  }
  EXPECT_EQ(a->totals().acked, b->totals().acked);
  EXPECT_EQ(a->totals().tuples_delivered, b->totals().tuples_delivered);
  // Different seed -> different service-noise draws, so latencies diverge
  // (sanity that the bit-exact comparison above can fail at all).
  auto latency_sum = [](const dsps::Engine& e) {
    double s = 0.0;
    for (const auto& w : e.history()) s += w.topology.avg_complete_latency;
    return s;
  };
  EXPECT_NE(latency_sum(*a), latency_sum(*c));
}

// --- sim/async routing parity ------------------------------------------

/// A finite stream through a deterministic (hash-based) grouping must land
/// on exactly the same relay tasks under both backends: routing semantics
/// live in the shared core, not the driver.
TEST(RuntimeCore, FieldsRoutingParityAcrossBackends) {
  constexpr std::int64_t kTuples = 120;

  BuiltTopo sim_t = relay_topo(1000.0, kTuples, "fields");
  dsps::ClusterConfig cfg = sim_cluster();
  cfg.gc_interval_mean = 0.0;
  dsps::Engine sim(sim_t.topo, cfg);
  sim.run_for(3.0);

  auto [slo, shi] = sim.tasks_of("relay");
  std::vector<std::uint64_t> sim_counts(shi - slo, 0);
  for (const auto& w : sim.history()) {
    for (std::size_t t = slo; t < shi; ++t) sim_counts[t - slo] += w.tasks[t].executed;
  }

  BuiltTopo async_t = relay_topo(1000.0, kTuples, "fields");
  rt::AsyncConfig acfg;
  acfg.workers = 3;
  rt::AsyncEngine async_engine(async_t.topo, acfg);
  async_engine.run_for(std::chrono::milliseconds(800));

  auto [alo, ahi] = async_engine.tasks_of("relay");
  ASSERT_EQ(ahi - alo, shi - slo);
  std::vector<std::uint64_t> async_counts = async_engine.executed_per_task();
  std::uint64_t sim_total = 0;
  for (std::size_t i = 0; i < sim_counts.size(); ++i) {
    EXPECT_EQ(sim_counts[i], async_counts[alo + i]) << "relay task " << i;
    sim_total += sim_counts[i];
  }
  EXPECT_EQ(sim_total, static_cast<std::uint64_t>(kTuples));
}

/// Dynamic grouping with a pinned ratio is exact SWRR on both backends.
TEST(RuntimeCore, DynamicRoutingParityAcrossBackends) {
  constexpr std::int64_t kTuples = 100;

  BuiltTopo sim_t = relay_topo(1000.0, kTuples, "dynamic");
  sim_t.ratio->set_ratios({3.0, 1.0, 0.0, 0.0});
  dsps::ClusterConfig cfg = sim_cluster();
  cfg.gc_interval_mean = 0.0;
  dsps::Engine sim(sim_t.topo, cfg);
  sim.run_for(3.0);

  BuiltTopo async_t = relay_topo(1000.0, kTuples, "dynamic");
  async_t.ratio->set_ratios({3.0, 1.0, 0.0, 0.0});
  rt::AsyncConfig acfg;
  acfg.workers = 2;
  rt::AsyncEngine async_engine(async_t.topo, acfg);
  async_engine.run_for(std::chrono::milliseconds(800));

  auto [slo, shi] = sim.tasks_of("relay");
  std::vector<std::uint64_t> sim_counts(shi - slo, 0);
  for (const auto& w : sim.history()) {
    for (std::size_t t = slo; t < shi; ++t) sim_counts[t - slo] += w.tasks[t].executed;
  }
  auto [alo, ahi] = async_engine.tasks_of("relay");
  ASSERT_EQ(ahi - alo, shi - slo);
  std::vector<std::uint64_t> async_counts = async_engine.executed_per_task();
  for (std::size_t i = 0; i < sim_counts.size(); ++i) {
    EXPECT_EQ(sim_counts[i], async_counts[alo + i]) << "relay task " << i;
  }
  EXPECT_EQ(sim_counts[0], 75u);  // 3:1 split over 100 tuples
  EXPECT_EQ(sim_counts[1], 25u);
  EXPECT_EQ(sim_counts[2], 0u);
}

// --- crash/recovery parity ---------------------------------------------

/// The same crashing scenario on both backends: crash a worker before any
/// traffic, run a finite fields-grouped stream, restart, and compare.
/// Because the crash precedes traffic, nothing is lost on either backend
/// and the comparison is exact: the recovered routing tables must be
/// identical (both backends use dsps::plan_crash_reassignment), and the
/// per-task executed counts must match task for task. (For mid-traffic
/// crashes the async backend loses a timing-dependent set of queued tuples —
/// the documented tolerance — so exact count parity is only asserted on
/// this crash-before-traffic projection; the chaos suite covers the
/// timing-dependent cases statistically.)
TEST(RuntimeCore, CrashRecoveryParityAcrossBackends) {
  constexpr std::int64_t kTuples = 150;
  // 4 workers on both backends -> identical interleaved placement.
  dsps::ClusterConfig cfg = sim_cluster();
  cfg.gc_interval_mean = 0.0;

  BuiltTopo sim_t = relay_topo(1000.0, kTuples, "fields");
  dsps::Engine sim(sim_t.topo, cfg);
  BuiltTopo async_t = relay_topo(1000.0, kTuples, "fields");
  rt::AsyncConfig acfg;
  acfg.workers = 4;
  rt::AsyncEngine async_engine(async_t.topo, acfg);

  ASSERT_TRUE(sim.supports_crash_recovery());
  ASSERT_TRUE(async_engine.supports_crash_recovery());

  // Pick a worker that hosts at least one relay task; identical placement
  // means the same worker qualifies on both backends.
  auto [rlo, rhi] = sim.tasks_of("relay");
  std::size_t victim = sim.worker_of_task(rlo);
  ASSERT_EQ(victim, async_engine.worker_of_task(rlo));

  sim.crash_worker(victim);
  async_engine.crash_worker(victim);
  EXPECT_FALSE(sim.worker_alive(victim));
  EXPECT_FALSE(async_engine.worker_alive(victim));

  // Recovered routing tables agree task for task.
  for (std::size_t t = rlo; t < rhi; ++t) {
    EXPECT_EQ(sim.worker_of_task(t), async_engine.worker_of_task(t)) << "task " << t;
    EXPECT_NE(sim.worker_of_task(t), victim) << "task " << t << " left on the dead worker";
  }
  EXPECT_TRUE(sim.placement_audit().empty()) << sim.placement_audit();
  EXPECT_TRUE(async_engine.placement_audit().empty()) << async_engine.placement_audit();

  // Run the finite stream to completion on the recovered placement.
  sim.run_for(3.0);
  async_engine.run_for(std::chrono::milliseconds(900));

  std::vector<std::uint64_t> sim_counts(rhi - rlo, 0);
  for (const auto& w : sim.history()) {
    for (std::size_t t = rlo; t < rhi; ++t) sim_counts[t - rlo] += w.tasks[t].executed;
  }
  std::vector<std::uint64_t> async_counts = async_engine.executed_per_task();
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < sim_counts.size(); ++i) {
    EXPECT_EQ(sim_counts[i], async_counts[rlo + i]) << "relay task " << i;
    total += sim_counts[i];
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(kTuples)) << "crash-before-traffic loses nothing";
  EXPECT_EQ(sim.totals().tuples_lost, 0u);
  EXPECT_EQ(async_engine.totals().lost, 0u);

  // Restart: both backends reclaim the original placement.
  sim.restart_worker(victim);
  async_engine.restart_worker(victim);
  EXPECT_TRUE(sim.worker_alive(victim));
  EXPECT_TRUE(async_engine.worker_alive(victim));
  for (std::size_t t = rlo; t < rhi; ++t) {
    EXPECT_EQ(sim.worker_of_task(t), async_engine.worker_of_task(t)) << "task " << t;
  }
  EXPECT_TRUE(sim.placement_audit().empty()) << sim.placement_audit();
  EXPECT_TRUE(async_engine.placement_audit().empty()) << async_engine.placement_audit();
  EXPECT_EQ(sim.totals().worker_crashes, 1u);
  EXPECT_EQ(sim.totals().worker_restarts, 1u);
  EXPECT_EQ(async_engine.totals().worker_crashes, 1u);
  EXPECT_EQ(async_engine.totals().worker_restarts, 1u);
}

// --- elastic rescale parity --------------------------------------------

/// The same scripted scale-out -> migrate -> scale-in sequence on both
/// backends: retire a worker (graceful drain through the shared
/// plan_crash_reassignment policy), re-activate it, migrate an executor
/// onto it explicitly, then retire another worker. After every step the
/// routing tables must agree task for task, and the finite stream must
/// execute with identical per-task window counters — graceful migration
/// is tuple-conserving on every backend. The script precedes traffic so
/// the comparison is exact (same projection the crash-parity test uses).
TEST(RuntimeCore, ElasticRescaleParityAcrossBackends) {
  constexpr std::int64_t kTuples = 150;
  dsps::ClusterConfig cfg = sim_cluster();
  cfg.gc_interval_mean = 0.0;

  BuiltTopo sim_t = relay_topo(1000.0, kTuples, "fields");
  dsps::Engine sim(sim_t.topo, cfg);
  BuiltTopo async_t = relay_topo(1000.0, kTuples, "fields");
  rt::AsyncConfig acfg;
  acfg.workers = 4;
  rt::AsyncEngine async_engine(async_t.topo, acfg);

  ASSERT_TRUE(sim.supports_elastic_scaling());
  ASSERT_TRUE(async_engine.supports_elastic_scaling());

  std::vector<runtime::ControlSurface*> backends{&sim, &async_engine};
  auto [rlo, rhi] = sim.tasks_of("relay");
  std::size_t task_count = 0;
  for (const auto& tasks : sim.worker_task_snapshot()) task_count += tasks.size();

  auto expect_parity = [&](const char* step) {
    for (std::size_t t = 0; t < task_count; ++t) {
      EXPECT_EQ(sim.worker_of_task(t), async_engine.worker_of_task(t))
          << step << ": task " << t;
    }
    EXPECT_TRUE(sim.placement_audit().empty()) << step << ": " << sim.placement_audit();
    EXPECT_TRUE(async_engine.placement_audit().empty())
        << step << ": " << async_engine.placement_audit();
  };

  // Scale in: retire worker 3 — graceful drain, no executor left behind.
  for (auto* b : backends) b->retire_worker(3);
  for (auto* b : backends) EXPECT_FALSE(b->worker_active(3));
  for (std::size_t t = 0; t < task_count; ++t) {
    EXPECT_NE(sim.worker_of_task(t), 3u) << "task " << t << " left on the retired worker";
  }
  expect_parity("retire(3)");

  // Scale out: re-activate it and migrate one relay executor onto it.
  for (auto* b : backends) b->add_worker(3);
  for (auto* b : backends) EXPECT_TRUE(b->worker_active(3));
  for (auto* b : backends) {
    b->migrate_tasks({{rlo, b->worker_of_task(rlo), 3}});
    EXPECT_EQ(b->worker_of_task(rlo), 3u);
  }
  expect_parity("add(3) + migrate");

  // Scale in again on a different worker; its executors drain onto the
  // survivors (including the freshly re-activated worker 3).
  for (auto* b : backends) b->retire_worker(2);
  for (std::size_t t = 0; t < task_count; ++t) {
    EXPECT_NE(sim.worker_of_task(t), 2u) << "task " << t << " left on the retired worker";
  }
  expect_parity("retire(2)");

  // Run the finite stream on the rescaled placement: identical per-task
  // window counters, nothing lost on any backend.
  sim.run_for(3.0);
  async_engine.run_for(std::chrono::milliseconds(900));

  std::vector<std::uint64_t> sim_counts(rhi - rlo, 0);
  for (const auto& w : sim.history()) {
    for (std::size_t t = rlo; t < rhi; ++t) sim_counts[t - rlo] += w.tasks[t].executed;
  }
  std::vector<std::uint64_t> async_counts = async_engine.executed_per_task();
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < sim_counts.size(); ++i) {
    EXPECT_EQ(sim_counts[i], async_counts[rlo + i]) << "relay task " << i;
    total += sim_counts[i];
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(kTuples)) << "migration must conserve tuples";
  EXPECT_EQ(sim.totals().tuples_lost, 0u);
  EXPECT_EQ(async_engine.totals().lost, 0u);

  // Identical rescale accounting across backends.
  EXPECT_EQ(sim.totals().worker_retires, 2u);
  EXPECT_EQ(sim.totals().worker_adds, 1u);
  EXPECT_EQ(async_engine.totals().worker_retires, 2u);
  EXPECT_EQ(async_engine.totals().worker_adds, 1u);
  EXPECT_EQ(sim.totals().task_migrations, async_engine.totals().task_migrations);
  EXPECT_GT(sim.totals().task_migrations, 0u);
}

// --- control surface ---------------------------------------------------

/// The same controller code attaches to both backends through the surface.
TEST(RuntimeCore, ControllerAttachesToBothBackends) {
  control::ControllerConfig ccfg;
  ccfg.control_interval = 0.5;

  BuiltTopo sim_t = relay_topo(500.0, 1 << 30, "dynamic");
  dsps::Engine sim(sim_t.topo, sim_cluster());
  control::PredictiveController sim_ctrl(ccfg,
                                         std::make_shared<control::ObservedPredictor>());
  sim_ctrl.attach(sim, "src", "relay");
  EXPECT_EQ(sim.backend_name(), "sim");
  sim.run_for(4.0);
  EXPECT_GT(sim_ctrl.actions().size(), 0u);

  BuiltTopo async_t = relay_topo(500.0, 1 << 30, "dynamic");
  rt::AsyncConfig acfg;
  acfg.workers = 2;
  acfg.window_seconds = 0.1;
  rt::AsyncEngine async_engine(async_t.topo, acfg);
  control::PredictiveController async_ctrl(ccfg,
                                           std::make_shared<control::ObservedPredictor>());
  async_ctrl.attach(async_engine, "src", "relay");
  EXPECT_EQ(async_engine.backend_name(), "async");
  async_engine.run_for(std::chrono::milliseconds(1200));
  EXPECT_GT(async_ctrl.actions().size(), 0u);
  EXPECT_GT(async_engine.history().size(), 5u);  // wall-clock windows collected
}

/// Mid-run crash on the async runtime: queued tuples at the dead worker's
/// executors are wiped (credits released, parked batches re-delivered),
/// placement heals via the shared reassignment policy, and processing
/// continues on the survivors.
TEST(RuntimeCore, AsyncMidRunCrashHealsAndContinues) {
  BuiltTopo t = relay_topo(3000.0, 1 << 30, "shuffle");
  rt::AsyncConfig cfg;
  cfg.workers = 3;
  rt::AsyncEngine engine(t.topo, cfg);
  engine.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  auto [lo, hi] = engine.tasks_of("relay");
  std::size_t victim = engine.worker_of_task(lo);
  engine.crash_worker(victim);
  EXPECT_FALSE(engine.worker_alive(victim));
  EXPECT_TRUE(engine.placement_audit().empty()) << engine.placement_audit();
  for (std::size_t task = lo; task < hi; ++task) {
    EXPECT_NE(engine.worker_of_task(task), victim);
  }
  std::uint64_t executed_at_crash = engine.totals().executed;
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  engine.restart_worker(victim);
  EXPECT_TRUE(engine.worker_alive(victim));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  engine.stop();
  EXPECT_GT(engine.totals().executed, executed_at_crash)
      << "the topology must keep processing through crash and restart";
  EXPECT_TRUE(engine.placement_audit().empty()) << engine.placement_audit();
  EXPECT_EQ(engine.totals().worker_crashes, 1u);
  EXPECT_EQ(engine.totals().worker_restarts, 1u);
}

/// Fault actuators reach the async runtime through the surface too.
TEST(RuntimeCore, AsyncFaultActuatorsObservable) {
  BuiltTopo t = relay_topo(2000.0, 1 << 30, "shuffle");
  rt::AsyncConfig cfg;
  cfg.workers = 2;
  rt::AsyncEngine engine(t.topo, cfg);
  runtime::ControlSurface& surface = engine;
  ASSERT_TRUE(surface.supports_fault_injection());
  surface.set_worker_drop_prob(0, 1.0);
  EXPECT_EQ(surface.worker_drop_prob(0), 1.0);
  surface.set_worker_slowdown(1, 2.5);
  EXPECT_EQ(surface.worker_slowdown(1), 2.5);
  engine.run_for(std::chrono::milliseconds(400));
  // Worker 0 drops everything routed to it: some dropped tuples must show
  // up in the wall-clock window stats.
  std::uint64_t dropped = 0;
  for (const auto& w : engine.history()) {
    for (const auto& ts : w.tasks) dropped += ts.dropped;
  }
  EXPECT_GT(dropped, 0u);
}

// --- controller decisions are backend-agnostic ---------------------------

/// Minimal ControlSurface over a hand-fed WindowHistory, with the elastic
/// and spout-throttle actuator groups implemented as plain state. The
/// parity test feeds two instances (labelled like the two backends)
/// byte-identical window histories and requires byte-identical decisions:
/// the Controller contract keeps wall clock and backend identity out of
/// every decision path, so the label must not matter.
class ScriptedSurface : public runtime::ControlSurface {
 public:
  static constexpr std::size_t kWorkers = 4;
  static constexpr std::size_t kTasks = 4;  // relay tasks, global ids 1..4

  explicit ScriptedSurface(std::string label)
      : label_(std::move(label)),
        history_(256),
        ratio_(std::make_shared<dsps::DynamicRatio>(kTasks)),
        active_(kWorkers, true) {
    for (std::size_t t = 0; t < kTasks; ++t) placement_.push_back(t % kWorkers);
  }

  std::string backend_name() const override { return label_; }
  double now_seconds() const override { return history_.empty() ? 0.0 : history_.back().time; }
  const runtime::WindowHistory& window_history() const override { return history_; }
  std::size_t worker_count() const override { return kWorkers; }
  std::pair<std::size_t, std::size_t> tasks_of(const std::string& component) const override {
    if (component != "relay") throw std::invalid_argument("unknown component: " + component);
    return {1, 1 + kTasks};
  }
  std::size_t worker_of_task(std::size_t task) const override {
    return task == 0 ? 0 : placement_.at(task - 1);
  }
  std::vector<std::size_t> workers_of(const std::string&) const override {
    std::vector<std::size_t> all(kWorkers);
    for (std::size_t w = 0; w < kWorkers; ++w) all[w] = w;
    return all;
  }
  std::size_t queue_length_of_task(std::size_t) const override { return 0; }
  std::shared_ptr<dsps::DynamicRatio> dynamic_ratio(const std::string& from,
                                                    const std::string& to) const override {
    if (from != "src" || to != "relay") {
      throw std::invalid_argument("no dynamic connection " + from + " -> " + to);
    }
    return ratio_;
  }
  std::vector<runtime::DynamicEdge> dynamic_edges() const override { return {{"src", "relay"}}; }
  void set_control_hook(double, ControlHook) override {}  // rounds driven manually

  bool supports_spout_throttle() const override { return true; }
  std::size_t max_spout_pending() const override { return cap_; }
  void set_max_spout_pending(std::size_t cap) override {
    if (cap == 0) throw std::invalid_argument("cap must be >= 1");
    cap_ = cap;
  }

  bool supports_elastic_scaling() const override { return true; }
  bool worker_active(std::size_t w) const override { return active_.at(w); }
  void add_worker(std::size_t w) override { active_.at(w) = true; }
  void retire_worker(std::size_t w) override {
    if (!active_.at(w)) return;
    active_[w] = false;
    std::vector<std::size_t> hosts;
    for (std::size_t h = 0; h < kWorkers; ++h) {
      if (active_[h]) hosts.push_back(h);
    }
    if (hosts.empty()) {
      active_[w] = true;
      throw std::invalid_argument("retire would strand every executor");
    }
    std::size_t next = 0;
    for (auto& host : placement_) {
      if (host == w) host = hosts[next++ % hosts.size()];
    }
  }
  void migrate_tasks(const std::vector<dsps::TaskMove>& moves) override {
    for (const auto& m : moves) placement_.at(m.task - 1) = m.to_worker;
  }
  std::vector<std::vector<std::size_t>> worker_task_snapshot() const override {
    std::vector<std::vector<std::size_t>> snap(kWorkers);
    for (std::size_t t = 0; t < kTasks; ++t) snap[placement_[t]].push_back(t + 1);
    return snap;
  }

  void push(dsps::WindowSample sample) { history_.push(std::move(sample)); }

  std::size_t cap() const { return cap_; }
  std::vector<double> ratio_weights() const { return ratio_->weights(); }
  const std::vector<bool>& active_flags() const { return active_; }
  const std::vector<std::size_t>& placement() const { return placement_; }

 private:
  std::string label_;
  runtime::WindowHistory history_;
  std::shared_ptr<dsps::DynamicRatio> ratio_;
  std::vector<bool> active_;
  std::vector<std::size_t> placement_;
  std::size_t cap_ = 512;
};

/// 30 scripted windows: calm (0-11), worker 2 degraded 6x with deep
/// queues, failures and an SLO-breaking p99 (12-23), recovered (24-29).
/// Every controller kind has something to react to in this course.
dsps::WindowSample scripted_window(std::size_t i) {
  const bool degraded = i >= 12 && i < 24;
  dsps::WindowSample s;
  s.time = static_cast<double>(i + 1);
  s.window = 1.0;
  s.workers.resize(ScriptedSurface::kWorkers);
  for (std::size_t w = 0; w < ScriptedSurface::kWorkers; ++w) {
    auto& ws = s.workers[w];
    ws.worker = w;
    ws.machine = w % 2;
    ws.executors = 1;
    ws.executed = 900 + 17 * w + (i % 5);
    ws.received = ws.executed;
    ws.avg_proc_time = (degraded && w == 2) ? 6e-3 : 1e-3 + 1e-5 * static_cast<double>(w);
    ws.avg_queue_wait = 0.2e-3;
    ws.queue_len = (degraded && w == 2) ? 200 : 2;
    ws.cpu_share = 0.4;
  }
  s.machines.resize(2);
  for (std::size_t m = 0; m < 2; ++m) {
    s.machines[m].machine = m;
    s.machines[m].cpu_util = 0.5;
    s.machines[m].load = 1.0;
  }
  s.tasks.resize(ScriptedSurface::kTasks);
  for (std::size_t t = 0; t < ScriptedSurface::kTasks; ++t) {
    auto& ts = s.tasks[t];
    ts.task = t + 1;
    ts.component = "relay";
    ts.comp_index = t;
    ts.worker = t;
    ts.executed = 900;
    ts.queue_len = (degraded && t == 2) ? 200 : 2;
  }
  s.topology.roots_emitted = 3600;
  s.topology.acked = degraded ? 3200 : 3600;
  s.topology.failed = degraded ? 400 : 0;
  s.topology.throughput = degraded ? 3200.0 : 3600.0;
  s.topology.avg_complete_latency = degraded ? 0.8 : 0.01;
  s.topology.p99_complete_latency = degraded ? 3.0 : 0.02;
  return s;
}

/// Every factory controller kind, driven round-by-round over identical
/// scripted histories on two surfaces wearing the two backend labels:
/// the resulting actuation state (split ratios, spout cap, active set,
/// placement) and decision records must be identical — routing decisions
/// are a function of the window history alone.
TEST(RuntimeCore, ControllerDecisionsAreBackendAgnostic) {
  for (const std::string& kind : control::controller_names()) {
    const std::vector<std::string> labels = {"sim", "async"};
    std::vector<std::unique_ptr<ScriptedSurface>> surfaces;
    std::vector<std::unique_ptr<control::Controller>> controllers;
    for (const std::string& label : labels) {
      surfaces.push_back(std::make_unique<ScriptedSurface>(label));
      control::ControllerOptions opts;
      opts.seed = 11;
      if (kind == "drnn" || kind == "observed") {
        // A deterministic predictor keeps the parity check about the
        // controller loop (the DRNN's own determinism is tested in nn/).
        opts.predictor = std::make_shared<control::ObservedPredictor>();
      }
      opts.elastic.reactive = true;  // sizes from observed queues alone
      opts.rate.max_pending = 2048;
      controllers.push_back(control::make_controller(kind, opts));
      controllers.back()->attach(*surfaces.back());
    }

    for (std::size_t i = 0; i < 30; ++i) {
      dsps::WindowSample w = scripted_window(i);
      for (std::size_t b = 0; b < surfaces.size(); ++b) {
        surfaces[b]->push(w);
        controllers[b]->control_round(*surfaces[b]);
      }
    }

    for (std::size_t b = 1; b < surfaces.size(); ++b) {
      EXPECT_EQ(surfaces[0]->ratio_weights(), surfaces[b]->ratio_weights())
          << kind << ": split ratios diverged on " << labels[b];
      EXPECT_EQ(surfaces[0]->cap(), surfaces[b]->cap())
          << kind << ": spout cap diverged on " << labels[b];
      EXPECT_EQ(surfaces[0]->active_flags(), surfaces[b]->active_flags())
          << kind << ": active worker set diverged on " << labels[b];
      EXPECT_EQ(surfaces[0]->placement(), surfaces[b]->placement())
          << kind << ": executor placement diverged on " << labels[b];
      EXPECT_EQ(controllers[0]->totals().control_rounds, controllers[b]->totals().control_rounds)
          << kind;
      EXPECT_EQ(controllers[0]->totals().rescales, controllers[b]->totals().rescales) << kind;
    }

    // The course actually provoked each kind (a parity test over
    // controllers that never act would pass vacuously).
    if (kind == "drnn" || kind == "observed") {
      auto* pc = static_cast<control::PredictiveController*>(controllers[0].get());
      EXPECT_FALSE(pc->actions().empty()) << kind;
      bool flagged = false;
      for (const auto& a : pc->actions()) {
        for (bool f : a.misbehaving) flagged |= f;
      }
      EXPECT_TRUE(flagged) << kind << ": the degraded worker must be detected";
    } else if (kind == "elastic") {
      EXPECT_GT(controllers[0]->totals().rescales, 0u);
    } else if (kind == "drl") {
      auto* drl = static_cast<control::DrlController*>(controllers[0].get());
      EXPECT_EQ(drl->decisions().size(), 30u);
      auto* other = static_cast<control::DrlController*>(controllers[1].get());
      ASSERT_EQ(drl->decisions().size(), other->decisions().size());
      for (std::size_t i = 0; i < drl->decisions().size(); ++i) {
        EXPECT_EQ(drl->decisions()[i].action, other->decisions()[i].action) << "round " << i;
        EXPECT_EQ(drl->decisions()[i].explored, other->decisions()[i].explored) << "round " << i;
        EXPECT_EQ(drl->decisions()[i].reward, other->decisions()[i].reward) << "round " << i;
      }
    } else if (kind == "rate") {
      auto* rate = static_cast<control::RateController*>(controllers[0].get());
      EXPECT_FALSE(rate->actions().empty());
      EXPECT_NE(surfaces[0]->cap(), 512u) << "the congested windows must move the cap";
    }
  }
}

/// The AIMD policy itself, step by step: additive probe on calm windows
/// (bounded by the ceiling), multiplicative cut on congestion (bounded by
/// the floor).
TEST(RuntimeCore, RateControllerAimdPolicy) {
  ScriptedSurface surface("sim");  // attach-time cap 512
  control::RateControllerConfig cfg;
  cfg.min_pending = 64;
  cfg.max_pending = 1024;
  cfg.additive_step = 256;
  cfg.decrease_factor = 0.5;
  control::RateController rate(cfg);
  rate.attach(surface);

  auto step = [&](bool degraded_window, std::size_t index) {
    // Indices 12..23 of the scripted course are the degraded ones.
    surface.push(scripted_window(degraded_window ? 12 + (index % 12) : index % 12));
    rate.control_round(surface);
    return surface.cap();
  };

  EXPECT_EQ(step(false, 0), 768u);   // 512 + 256
  EXPECT_EQ(step(false, 1), 1024u);  // clamped to the ceiling
  EXPECT_EQ(step(false, 2), 1024u);  // no change recorded at the ceiling
  EXPECT_EQ(step(true, 0), 512u);    // 1024 * 0.5
  EXPECT_EQ(step(true, 1), 256u);
  EXPECT_EQ(step(true, 2), 128u);
  EXPECT_EQ(step(true, 3), 64u);     // the floor
  EXPECT_EQ(step(true, 4), 64u);     // parked at the floor
  EXPECT_EQ(step(false, 3), 320u);   // additive recovery resumes

  ASSERT_EQ(rate.actions().size(), 7u);  // the two no-change rounds record nothing
  EXPECT_FALSE(rate.actions()[0].congested);
  EXPECT_TRUE(rate.actions()[2].congested);
}

/// The new controller kinds attach to the wall-clock backend through the
/// same surface and fire rounds there (the decision-parity test above
/// covers what they decide; this covers the wiring).
TEST(RuntimeCore, DrlAndRateControllersAttachToAsyncBackend) {
  BuiltTopo drl_t = relay_topo(500.0, 1 << 30, "dynamic");
  rt::AsyncConfig dcfg_engine;
  dcfg_engine.workers = 2;
  dcfg_engine.window_seconds = 0.1;
  rt::AsyncEngine drl_engine(drl_t.topo, dcfg_engine);
  control::DrlControllerConfig dcfg;
  dcfg.control_interval = 0.2;
  control::DrlController drl(dcfg);
  drl.attach(drl_engine);
  drl_engine.run_for(std::chrono::milliseconds(900));
  EXPECT_GT(drl.totals().control_rounds, 0u);
  EXPECT_FALSE(drl.decisions().empty());

  BuiltTopo async_t = relay_topo(500.0, 1 << 30, "shuffle");
  rt::AsyncConfig acfg;
  acfg.workers = 2;
  acfg.window_seconds = 0.1;
  rt::AsyncEngine async_engine(async_t.topo, acfg);
  ASSERT_TRUE(async_engine.supports_spout_throttle());
  control::RateControllerConfig rate_cfg;
  rate_cfg.control_interval = 0.2;
  rate_cfg.min_pending = 8;
  control::RateController rate(rate_cfg);
  rate.attach(async_engine);
  async_engine.run_for(std::chrono::milliseconds(900));
  EXPECT_GT(rate.totals().control_rounds, 0u);
  EXPECT_GE(async_engine.max_spout_pending(), 8u);
}

// --- lookup validation -------------------------------------------------

TEST(RuntimeCore, FindDynamicRatioDiagnostics) {
  BuiltTopo t = relay_topo(100.0, 100, "dynamic");
  EXPECT_NE(runtime::find_dynamic_ratio(t.topo, "src", "relay"), nullptr);
  // Existing but non-dynamic connection.
  try {
    runtime::find_dynamic_ratio(t.topo, "relay", "sink");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("global"), std::string::npos)
        << "diagnostic should name the actual grouping kind: " << e.what();
  }
  // Unknown destination bolt.
  EXPECT_THROW(runtime::find_dynamic_ratio(t.topo, "src", "ghost"), std::invalid_argument);
  // Known bolt, but no subscription from that component.
  EXPECT_THROW(runtime::find_dynamic_ratio(t.topo, "ghost", "relay"), std::invalid_argument);
}

// --- DynamicRatio thread-safety & validation ---------------------------

TEST(RuntimeCore, SetRatiosValidatesInput) {
  dsps::DynamicRatio ratio(4);
  EXPECT_THROW(ratio.set_ratios({1.0, 2.0}), std::invalid_argument);            // wrong length
  EXPECT_THROW(ratio.set_ratios({0.0, 0.0, 0.0, 0.0}), std::invalid_argument);  // all-zero
  EXPECT_THROW(ratio.set_ratios({1.0, -0.5, 1.0, 1.0}), std::invalid_argument); // negative
  std::uint64_t v = ratio.version();
  ratio.set_ratios({2.0, 2.0, 0.0, 0.0});
  EXPECT_GT(ratio.version(), v);
  auto w = ratio.weights();
  EXPECT_DOUBLE_EQ(w[0], 0.5);
  EXPECT_DOUBLE_EQ(w[1], 0.5);
}

TEST(RuntimeCore, ConcurrentSetRatiosAndSnapshots) {
  dsps::DynamicRatio ratio(4);
  std::atomic<bool> stop{false};
  std::atomic<bool> bad{false};

  std::thread writer([&] {
    std::vector<double> w{1.0, 1.0, 1.0, 1.0};
    for (int i = 0; i < 20000 && !stop.load(); ++i) {
      w[i % 4] = 1.0 + (i % 7);
      ratio.set_ratios(w);
    }
    stop.store(true);
  });
  std::thread reader([&] {
    std::vector<double> snap;
    while (!stop.load(std::memory_order_relaxed)) {
      ratio.snapshot_weights(snap);
      double sum = 0.0;
      for (double x : snap) sum += x;
      // Snapshots must always be a complete, normalized vector (never a
      // torn write).
      if (snap.size() != 4 || sum < 0.99 || sum > 1.01) bad.store(true);
    }
  });
  writer.join();
  reader.join();
  EXPECT_FALSE(bad.load());
}

}  // namespace
}  // namespace repro

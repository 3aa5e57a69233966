// Reliability on the wall-clock runtime: the predictive control loop —
// written once against runtime::ControlSurface — attaches to
// rt::AsyncEngine exactly as it does to the simulator, detects an
// injected worker slowdown from wall-clock window statistics, and
// re-ratios the dynamic grouping live to bypass the misbehaving worker.
//
// Build & run:   ./build/examples/rt_reliability_demo
//                  [--queue-cap=N --overflow-policy=unbounded|block|drop]
//                  [--max-pending=N] [--batch-size=N]
//
// Runs on the async event-loop runtime; --backend=sim is rejected — this
// demo needs wall-clock execution. The flow flags bound every task
// in-queue through runtime::FlowControl (block = lossless backpressure
// into the spout throttle, drop = shed and rely on replay); the per-task
// table reports each hash task's peak observed queue depth, which stays
// <= cap under a bounded policy. --batch-size sets the columnar
// TupleBatch size of the data path. The scheduler line at the end surfaces the backend's wakeup
// / steal / suspend counters (see dsps::SchedulerWindowStats).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "control/baseline_predictors.hpp"
#include "control/controller.hpp"
#include "rt/async_engine.hpp"
#include "runtime/flow_control.hpp"

using namespace repro;

namespace {

class NumberSpout final : public dsps::Spout {
 public:
  double next_delay(sim::SimTime) override { return 1.0 / 2000.0; }
  std::optional<dsps::Values> next(sim::SimTime) override {
    return dsps::Values{static_cast<std::int64_t>(n_++)};
  }

 private:
  std::int64_t n_ = 0;
};

class HashBolt final : public dsps::Bolt {
 public:
  void execute(const dsps::Tuple& in, dsps::OutputCollector& out) override {
    // Enough real CPU work per tuple for avg_proc_time to be measurable.
    std::uint64_t h = static_cast<std::uint64_t>(in.as_int(0));
    for (int i = 0; i < 2000; ++i) h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    out.emit({static_cast<std::int64_t>(h & 0xffff)});
  }
};

class SinkBolt final : public dsps::Bolt {
 public:
  void execute(const dsps::Tuple&, dsps::OutputCollector&) override {}
};

std::vector<std::uint64_t> deltas(const std::vector<std::uint64_t>& now,
                                  const std::vector<std::uint64_t>& before) {
  std::vector<std::uint64_t> d(now.size());
  for (std::size_t i = 0; i < now.size(); ++i) d[i] = now[i] - before[i];
  return d;
}

dsps::Topology build_topology() {
  dsps::TopologyBuilder builder("rt-reliability");
  builder.set_spout("numbers", [] { return std::make_unique<NumberSpout>(); });
  builder.set_bolt("hash", [] { return std::make_unique<HashBolt>(); }, 4)
      .dynamic_grouping("numbers");
  builder.set_bolt("sink", [] { return std::make_unique<SinkBolt>(); }).global_grouping("hash");
  return builder.build();
}

/// The demo body: the control loop and the reporting only ever touch the
/// shared surface, exactly as they would on the simulator.
int run_demo(const rt::AsyncConfig& cfg) {
  rt::AsyncEngine engine(build_topology(), cfg);

  // The controller sees only the runtime-agnostic control surface — the
  // same attach() call works against dsps::Engine. Topology-wide attach
  // discovers the numbers -> hash dynamic edge on its own.
  runtime::ControlSurface& surface = engine;
  control::ControllerConfig ctrl_cfg;
  ctrl_cfg.control_interval = 0.3;
  ctrl_cfg.detector.consecutive = 2;
  control::PredictiveController controller(
      ctrl_cfg, std::make_shared<control::ObservedPredictor>());
  controller.attach(surface);

  std::printf("backend: %s, %zu workers, window %.1fs\n", surface.backend_name().c_str(),
              surface.worker_count(), cfg.window_seconds);

  auto [lo, hi] = engine.tasks_of("hash");
  std::size_t victim = engine.worker_of_task(lo);

  engine.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  auto healthy = engine.executed_per_task();

  std::printf("injecting 8x slowdown on worker %zu (hosts hash task 0)...\n", victim);
  surface.set_worker_slowdown(victim, 8.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(3000));
  engine.stop();

  auto faulted = deltas(engine.executed_per_task(), healthy);

  // Peak observed in-queue per task across the run's windows: under a
  // bounded policy this stays <= the configured cap.
  std::vector<std::size_t> peak_q(engine.window_history().back().tasks.size(), 0);
  for (const auto& w : engine.window_history().samples()) {
    for (const auto& t : w.tasks) peak_q[t.task] = std::max(peak_q[t.task], t.queue_len);
  }

  common::Table table({"hash task", "worker", "healthy phase", "faulted phase", "peak q"});
  for (std::size_t t = lo; t < hi; ++t) {
    table.add_row({std::to_string(t - lo), std::to_string(engine.worker_of_task(t)),
                   std::to_string(healthy[t]), std::to_string(faulted[t]),
                   std::to_string(peak_q[t])});
  }
  table.print("per-task executed tuples (controller bypasses the slow worker)");

  std::uint64_t victim_faulted = 0, total_faulted = 0;
  for (std::size_t t = lo; t < hi; ++t) {
    if (engine.worker_of_task(t) == victim) victim_faulted += faulted[t];
    total_faulted += faulted[t];
  }
  double share = total_faulted > 0
                     ? static_cast<double>(victim_faulted) / static_cast<double>(total_faulted)
                     : 0.0;
  double round_sum = 0.0;
  for (const auto& a : controller.actions()) round_sum += a.round_seconds;
  double mean_round_ms = controller.actions().empty()
                             ? 0.0
                             : 1e3 * round_sum / static_cast<double>(controller.actions().size());
  std::printf("\ncontrol rounds: %zu on %zu edge(s), mean round %.3f ms, "
              "victim share after fault: %.1f%%\n",
              controller.actions().size(), controller.edge_count(), mean_round_ms,
              share * 100.0);

  rt::RtTotals totals = engine.totals();
  std::printf("roots=%llu acked=%llu failed=%llu, mean complete latency=%.3f ms\n",
              (unsigned long long)totals.roots_emitted, (unsigned long long)totals.acked,
              (unsigned long long)totals.failed, engine.mean_complete_latency() * 1e3);
  if (cfg.flow.bounded()) {
    std::printf("flow control (%s, cap %zu): shed=%llu stall=%.2fs\n",
                runtime::overflow_policy_name(cfg.flow.policy), cfg.flow.queue_capacity,
                (unsigned long long)totals.dropped_overflow,
                engine.flow_control()->total_stall_seconds());
  }
  // Scheduler observability: eventcount wakes, work steals and the
  // suspend/resume pairs of the kBlockUpstream task-parking path.
  std::printf("scheduler: wakeups=%llu productive / %llu spurious, steals=%llu, "
              "suspends=%llu resumes=%llu, ready peak=%zu\n",
              (unsigned long long)totals.wakeups_productive,
              (unsigned long long)totals.wakeups_spurious, (unsigned long long)totals.steals,
              (unsigned long long)totals.suspends, (unsigned long long)totals.resumes,
              totals.ready_peak);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  common::Flags flags(argc, argv);
  std::vector<std::string> known = {"help"};
  for (const auto& name : runtime::data_path_flag_names()) known.push_back(name);
  if (flags.get_bool("help") || !flags.unknown(known).empty()) {
    for (const auto& u : flags.unknown(known)) {
      std::fprintf(stderr, "unknown flag --%s\n", u.c_str());
    }
    std::fprintf(stderr, "usage: rt_reliability_demo\n%s\n", runtime::data_path_flag_usage());
    return flags.get_bool("help") ? 0 : 2;
  }

  rt::AsyncConfig cfg;
  cfg.workers = 3;
  cfg.window_seconds = 0.1;
  runtime::BackendKind backend = runtime::BackendKind::kAsync;
  if (!runtime::apply_data_path_flags(flags, cfg.flow, cfg.max_spout_pending, cfg.batch_size,
                                      backend)) {
    return 2;
  }
  if (backend == runtime::BackendKind::kSim) {
    std::fprintf(stderr, "--backend=sim: this demo needs wall-clock execution (use async)\n");
    return 2;
  }
  return run_demo(cfg);
}

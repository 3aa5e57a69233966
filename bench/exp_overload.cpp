// Experiment T5 (extension): overload behaviour under a spout surge with a
// degraded worker — the bounded data path (runtime::FlowControl) versus
// the historical unbounded queues.
//
//   stock unbounded — shuffle-equivalent routing, no queue bound: the slow
//                     worker's in-queues grow without limit during the
//                     surge (latency hides in the queues).
//   stock block     — bounded queues, kBlockUpstream, no control: the full
//                     queue backpressures the spout hop by hop, so the
//                     whole topology is head-of-line blocked behind the
//                     one degraded worker.
//   stock drop      — bounded queues, kDropNewest, no control: the full
//                     queue sheds load; every shed tuple fails at the ack
//                     timeout and costs a replay or a lost root.
//   framework block — same bounded queues under the predictive controller:
//                     the DRNN flags the degrading worker and the planner
//                     re-routes tuples away from it, so the bound is kept
//                     WITHOUT paying the stock head-of-line collapse.
//
// Expected shape: every bounded mode keeps peak queue depth <= cap while
// the unbounded baseline grows far past it; the framework sustains at
// least the stock-bounded throughput (it reroutes around the very queues
// that block stock).
#include <algorithm>
#include <memory>

#include "apps/url_count.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "control/controller.hpp"
#include "dsps/engine.hpp"
#include "exp/scenarios.hpp"
#include "runtime/flow_control.hpp"

using namespace repro;

namespace {

/// The base run comes from the scenario registry: "t5-overload" carries
/// the surge rate profile, seed, bounded-queue cap, fault parameters and
/// durations; the mode sweep below (unbounded/block/drop x
/// stock/framework) varies the flow config on top of it.
const exp::ScenarioSpec& base_spec() {
  return exp::ScenarioRegistry::instance().get("t5-overload");
}

const double kRunDuration = base_spec().duration;
const double kTrainDuration = base_spec().train_duration;
const double kFaultTime = base_spec().faults.front().at;
const double kSlowdown = base_spec().faults.front().value;
const std::size_t kQueueCap = base_spec().flow.queue_capacity;
const std::uint64_t kSeed = base_spec().seed;

/// URL Count with a surging arrival rate: a long-period, high-amplitude
/// sinusoid whose peaks (t ~= 20s, 100s) more than double the trough rate
/// — the "spout surge" the bounded queues must absorb.
apps::BuiltApp make_app() {
  const exp::TopologySpec& topo = base_spec().topologies.front();
  apps::UrlCountOptions app;
  app.spout.seed = kSeed;
  app.spout.rate.base_rate = topo.base_rate;
  app.spout.rate.amplitude = topo.amplitude;
  app.spout.rate.period = topo.period;
  return apps::build_url_count(app);
}

dsps::ClusterConfig make_cluster(const runtime::FlowControlConfig& flow) {
  dsps::ClusterConfig cfg = base_spec().cluster_config();
  cfg.flow = flow;
  return cfg;
}

struct ModeResult {
  std::string name;
  dsps::EngineTotals totals;
  double mean_tput = 0.0;      ///< acked/s, averaged over the whole run
  double surge_tput = 0.0;     ///< acked/s during the second surge (post-fault)
  std::size_t peak_queue = 0;  ///< max task in-queue over all windows
  double stall_seconds = 0.0;
  std::size_t control_rounds = 0;
  double mean_round_ms = 0.0;
};

ModeResult run_mode(const std::string& name, const runtime::FlowControlConfig& flow,
                    std::shared_ptr<control::PerformancePredictor> predictor) {
  apps::BuiltApp app = make_app();
  dsps::Engine engine(app.topology, make_cluster(flow));

  std::shared_ptr<control::PredictiveController> controller;
  if (predictor) {
    control::ControllerConfig ctl;
    controller = std::make_shared<control::PredictiveController>(ctl, predictor);
    controller->attach(engine);
  }

  // The degraded worker: one that hosts counter executors, ramped to a
  // kSlowdown-fold service-time inflation just before the second surge.
  std::size_t victim = engine.workers_of(app.control_bolt).front();
  dsps::FaultPlan plan;
  plan.ramp(kFaultTime, victim, kSlowdown, 6.0);
  engine.apply_fault_plan(plan);

  engine.run_for(kRunDuration);

  ModeResult r;
  r.name = name;
  r.totals = engine.totals();
  double acked_surge = 0.0;
  std::size_t surge_windows = 0;
  for (const auto& w : engine.window_history().samples()) {
    for (const auto& t : w.tasks) r.peak_queue = std::max(r.peak_queue, t.queue_len);
    if (w.time >= 80.0) {  // second surge: rate climbing back to peak
      acked_surge += w.topology.throughput;
      ++surge_windows;
    }
  }
  r.mean_tput = static_cast<double>(r.totals.acked) / kRunDuration;
  r.surge_tput = surge_windows > 0 ? acked_surge / static_cast<double>(surge_windows) : 0.0;
  r.stall_seconds = engine.flow_control()->total_stall_seconds();
  if (controller && !controller->actions().empty()) {
    double sum = 0.0;
    for (const auto& a : controller->actions()) sum += a.round_seconds;
    r.control_rounds = controller->actions().size();
    r.mean_round_ms = sum / static_cast<double>(r.control_rounds) * 1e3;
  }
  return r;
}

/// Pretrain the DRNN on a trace from the same surging app with random
/// worker-slowdown ramps mixed in (the misbehaviour examples the detector
/// needs), collected on unbounded queues.
std::shared_ptr<control::PerformancePredictor> pretrain() {
  apps::BuiltApp app = make_app();
  dsps::Engine engine(app.topology, make_cluster({}));
  dsps::FaultPlan plan;
  common::Pcg32 rng(kSeed + 77, 0x7a);
  for (double t = 20.0; t < kTrainDuration - 20.0; t += rng.uniform(25.0, 45.0)) {
    std::size_t worker = rng.bounded(static_cast<std::uint32_t>(engine.worker_count()));
    plan.ramp(t, worker, rng.uniform(2.0, kSlowdown), 6.0);
    plan.ramp(t + 12.0, worker, 1.0, 6.0);  // recover
  }
  engine.apply_fault_plan(plan);
  engine.run_for(kTrainDuration);

  std::vector<dsps::WindowSample> trace = engine.window_history().samples();
  std::vector<std::size_t> workers = exp::active_workers(trace);
  std::shared_ptr<control::PerformancePredictor> predictor =
      control::make_predictor("drnn", kSeed + 17);
  predictor->fit(trace, workers);
  return predictor;
}

}  // namespace

int main() {
  bench::banner("T5", "overload under spout surge: bounded queues vs stock (URL Count)");

  std::printf("pretraining the DRNN on a %.0fs surge trace...\n", kTrainDuration);
  auto predictor = pretrain();

  const runtime::FlowControlConfig unbounded{};
  const runtime::FlowControlConfig block{kQueueCap, runtime::OverflowPolicy::kBlockUpstream};
  const runtime::FlowControlConfig drop{kQueueCap, runtime::OverflowPolicy::kDropNewest};

  std::vector<ModeResult> rows;
  rows.push_back(run_mode("stock unbounded", unbounded, nullptr));
  std::printf("stock unbounded done\n");
  rows.push_back(run_mode("stock block", block, nullptr));
  std::printf("stock block done\n");
  rows.push_back(run_mode("stock drop", drop, nullptr));
  std::printf("stock drop done\n");
  rows.push_back(run_mode("framework block", block, predictor));
  std::printf("framework block done\n");

  // "ctl ms" is wall-clock (mean controller round) and excluded from
  // byte-compare against recorded outputs.
  common::Table table({"mode", "tput/s", "surge tput/s", "peak q", "shed", "failed", "replays",
                       "stall(s)", "ctl ms"});
  for (const auto& r : rows) {
    table.add_row({r.name, common::format_double(r.mean_tput, 1),
                   common::format_double(r.surge_tput, 1), std::to_string(r.peak_queue),
                   std::to_string(r.totals.tuples_dropped_overflow),
                   std::to_string(r.totals.failed), std::to_string(r.totals.replays),
                   common::format_double(r.stall_seconds, 1),
                   common::format_double(r.mean_round_ms, 3)});
  }
  table.print("T5: spout surge with a degraded worker (cap=64 for bounded modes)");

  const ModeResult& stock_block = rows[1];
  const ModeResult& fw = rows[3];
  std::printf("\nbound holds: bounded peaks %zu/%zu/%zu vs unbounded %zu (cap %zu)\n",
              rows[1].peak_queue, rows[2].peak_queue, rows[3].peak_queue, rows[0].peak_queue,
              kQueueCap);
  std::printf("framework vs stock block: %.1f vs %.1f acked/s (%+.1f%%), stall %.1fs vs %.1fs\n",
              fw.mean_tput, stock_block.mean_tput,
              100.0 * (fw.mean_tput / stock_block.mean_tput - 1.0), fw.stall_seconds,
              stock_block.stall_seconds);
  std::printf("\nexpected shape: bounded modes keep every in-queue <= cap while the\n"
              "unbounded baseline's queues grow far past it during the surge; stock\n"
              "block pays head-of-line backpressure behind the degraded worker, stock\n"
              "drop pays sheds+replays; the framework re-routes around the degraded\n"
              "worker and sustains at least stock-bounded throughput under the bound.\n");
  return 0;
}

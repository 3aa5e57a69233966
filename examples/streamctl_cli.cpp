// streamctl_cli — run any scenario from the command line and dump its
// trace/metrics: the "operator's tool" for exploring the simulator and
// the wall-clock async backend.
//
//   ./build/examples/streamctl_cli --app=url|cq --duration=120 --seed=42
//       [--backend=sim|async]
//       [--hog=2.4] [--ramps=0] [--machines=3] [--workers=2] [--cores=2]
//       [--fault-worker=N --fault-slowdown=X --fault-at=T]
//       [--trace-out=path.csv] [--controller=drnn|observed|elastic|drl|rate|none]
//       [--train-duration=240] [--history-cap=N]
//       [--queue-cap=N --overflow-policy=unbounded|block|drop] [--max-pending=N]
//       [--batch-size=N]
//
// --backend selects the engine under the same app + controller: sim (the
// deterministic discrete-event simulator, default) or async (event-loop
// scheduler runtime). On async --duration is wall-clock seconds, hog/ramp
// interference does not apply (it models simulated CPU contention), and
// --fault-worker injects a live slowdown at --fault-at seconds.
// --history-cap bounds the engine's window-history retention (the
// runtime::WindowHistory spine); 0 keeps the whole run (default).
// --queue-cap/--overflow-policy bound every task in-queue through the
// runtime::FlowControl layer (block = lossless backpressure, drop = shed
// and replay); --max-pending sets the spout throttle (Storm's
// max.spout.pending) that blocking queues propagate backpressure into;
// --batch-size sets the columnar TupleBatch size of the data path (1 =
// the historical per-tuple behaviour).
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "control/controller.hpp"
#include "control/controller_factory.hpp"
#include "exp/scenarios.hpp"
#include "exp/trace_io.hpp"
#include "rt/async_engine.hpp"
#include "runtime/flow_control.hpp"

using namespace repro;

namespace {

void print_run_summary(const std::vector<dsps::WindowSample>& history) {
  common::Table table(
      {"t(s)", "throughput", "avg_latency(ms)", "p99(ms)", "pending", "failed", "max q"});
  std::size_t step = std::max<std::size_t>(1, history.size() / 12);
  for (std::size_t i = step - 1; i < history.size(); i += step) {
    const auto& w = history[i];
    std::size_t max_q = 0;
    for (const auto& t : w.tasks) max_q = std::max(max_q, t.queue_len);
    table.add_row({common::format_double(w.time, 0),
                   common::format_double(w.topology.throughput, 0),
                   common::format_double(w.topology.avg_complete_latency * 1e3, 2),
                   common::format_double(w.topology.p99_complete_latency * 1e3, 2),
                   std::to_string(w.topology.pending), std::to_string(w.topology.failed),
                   std::to_string(max_q)});
  }
  table.print("run summary");
}

void print_controller_summary(const control::Controller& controller) {
  control::ControllerTotals totals = controller.totals();
  if (totals.control_rounds == 0) return;
  std::printf("controller (%s): %zu control rounds, mean round %.3f ms\n",
              controller.name().c_str(), totals.control_rounds, totals.mean_round_ms);
  if (totals.rescales > 0) {
    std::printf("controller (%s): %zu rescales, worker-seconds=%.1f\n",
                controller.name().c_str(), totals.rescales, totals.worker_seconds);
  }
}

void save_trace_if_requested(const common::Flags& flags,
                             const std::vector<dsps::WindowSample>& history) {
  std::string trace_out = flags.get("trace-out");
  if (trace_out.empty()) return;
  exp::save_trace_csv(history, trace_out);
  std::printf("trace written to %s (%zu windows)\n", trace_out.c_str(), history.size());
}

/// Drive the scenario's app on the async backend for `duration`
/// wall-clock seconds. The controller attaches through the same
/// runtime::ControlSurface as on the simulator.
int run_async(const exp::ScenarioOptions& scen, const rt::AsyncConfig& cfg,
              const common::Flags& flags, double duration,
              std::unique_ptr<control::Controller> controller) {
  rt::AsyncEngine engine(exp::make_app(scen).topology, cfg);

  if (controller) controller->attach(engine);
  if (scen.hog_intensity > 0.0 || scen.ramp_rate > 0.0) {
    std::printf("note: hog/ramp interference is simulator-only; not applied on %s\n",
                engine.backend_name().c_str());
  }

  std::printf("running %s on the %s backend for %.0fs (wall clock, %zu workers)...\n",
              exp::app_name(scen.app), engine.backend_name().c_str(), duration,
              engine.worker_count());
  auto as_ms = [](double seconds) {
    return std::chrono::milliseconds(static_cast<long long>(seconds * 1e3));
  };
  if (flags.has("fault-worker")) {
    auto victim = static_cast<std::size_t>(flags.get_int("fault-worker", 1));
    double slowdown = flags.get_double("fault-slowdown", 6.0);
    double at = std::min(flags.get_double("fault-at", duration / 3.0), duration);
    engine.start();
    std::this_thread::sleep_for(as_ms(at));
    std::printf("injecting %.1fx slowdown on worker %zu...\n", slowdown, victim);
    engine.set_worker_slowdown(victim, slowdown);
    std::this_thread::sleep_for(as_ms(duration - at));
    engine.stop();
  } else {
    engine.run_for(as_ms(duration));
  }

  print_run_summary(engine.window_history().samples());
  rt::RtTotals totals = engine.totals();
  std::printf("\ntotals: roots=%llu acked=%llu failed=%llu\n",
              (unsigned long long)totals.roots_emitted, (unsigned long long)totals.acked,
              (unsigned long long)totals.failed);
  if (cfg.flow.bounded()) {
    std::printf("flow control (%s, cap %zu): shed=%llu stall=%.1fs\n",
                runtime::overflow_policy_name(cfg.flow.policy), cfg.flow.queue_capacity,
                (unsigned long long)totals.dropped_overflow,
                engine.flow_control()->total_stall_seconds());
  }
  std::printf("scheduler: wakeups=%llu productive / %llu spurious, steals=%llu, "
              "suspends=%llu resumes=%llu, ready peak=%zu\n",
              (unsigned long long)totals.wakeups_productive,
              (unsigned long long)totals.wakeups_spurious, (unsigned long long)totals.steals,
              (unsigned long long)totals.suspends, (unsigned long long)totals.resumes,
              totals.ready_peak);
  if (controller) print_controller_summary(*controller);
  save_trace_if_requested(flags, engine.window_history().samples());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  common::Flags flags(argc, argv);
  std::vector<std::string> known = {
      "app",  "duration",     "seed",          "hog",      "ramps",          "machines",
      "workers", "cores",     "fault-worker",  "fault-slowdown", "fault-at", "trace-out",
      "controller", "train-duration", "history-cap", "help"};
  for (const auto& name : runtime::data_path_flag_names()) known.push_back(name);
  if (flags.get_bool("help") || !flags.unknown(known).empty()) {
    for (const auto& u : flags.unknown(known)) std::fprintf(stderr, "unknown flag --%s\n", u.c_str());
    std::fprintf(stderr,
                 "usage: streamctl_cli --app=url|cq --duration=SECONDS [--seed=N] [--hog=X]\n"
                 "  [--ramps=RATE] [--machines=N --workers=N --cores=X]\n"
                 "  [--fault-worker=N --fault-slowdown=X --fault-at=T]\n"
                 "  [--controller=drnn|observed|elastic|drl|rate|none [--train-duration=SECONDS]]\n"
                 "  [--trace-out=FILE.csv] [--history-cap=N]\n%s\n",
                 runtime::data_path_flag_usage());
    return flags.get_bool("help") ? 0 : 2;
  }

  exp::ScenarioOptions scen;
  scen.app = flags.get("app", "url") == "cq" ? exp::AppKind::kContinuousQuery
                                             : exp::AppKind::kUrlCount;
  scen.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  scen.cluster = exp::default_cluster(scen.seed);
  scen.cluster.machines = static_cast<std::size_t>(flags.get_int("machines", 3));
  scen.cluster.workers_per_machine = static_cast<std::size_t>(flags.get_int("workers", 2));
  scen.cluster.cores_per_machine = flags.get_double("cores", 2.0);
  scen.cluster.history_capacity = static_cast<std::size_t>(flags.get_int("history-cap", 0));
  runtime::BackendKind backend = runtime::BackendKind::kSim;
  if (!runtime::apply_data_path_flags(flags, scen.cluster.flow, scen.cluster.max_spout_pending,
                                      scen.cluster.batch_size, backend)) {
    return 2;
  }
  scen.hog_intensity = flags.get_double("hog", 2.4);
  scen.ramp_rate = flags.get_double("ramps", 0.0);
  double duration = flags.get_double("duration", 120.0);

  // Optional control arm, built through the shared factory (fail closed:
  // an unknown name exits 2 listing the vocabulary). The DRNN pretrains on
  // a simulator profiling trace (deterministic interference), whatever
  // backend then runs the scenario; the model-free arms (drl, rate) need
  // no pretraining — the DQN explores online during the run.
  std::string controller_kind = flags.get("controller", "none");
  std::unique_ptr<control::Controller> controller;
  if (controller_kind != "none") {
    control::ControllerOptions opts;
    opts.seed = scen.seed;
    if (controller_kind == "drnn") {
      exp::ScenarioOptions train_scen = scen;
      train_scen.ramp_rate = std::max(train_scen.ramp_rate, 4.0);
      double train_duration = flags.get_double("train-duration", 240.0);
      std::printf("pretraining DRNN on a %.0fs profiling trace...\n", train_duration);
      auto trace = exp::collect_trace(train_scen, train_duration);
      auto drnn = control::make_predictor("drnn", scen.seed + 17);
      drnn->fit(trace, exp::active_workers(trace));
      opts.predictor = std::move(drnn);
    }
    try {
      controller = control::make_controller(controller_kind, opts);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "--controller: %s\n", e.what());
      return 2;
    }
  }

  if (backend != runtime::BackendKind::kSim) {
    // Wall-clock config: logical workers = the simulator's worker grid,
    // window/ack/flow settings carried over 1:1.
    rt::AsyncConfig cfg;
    cfg.workers = scen.cluster.machines * scen.cluster.workers_per_machine;
    cfg.window_seconds = scen.cluster.window_seconds;
    cfg.ack_timeout = scen.cluster.ack_timeout;
    cfg.max_spout_pending = scen.cluster.max_spout_pending;
    cfg.flow = scen.cluster.flow;
    cfg.batch_size = scen.cluster.batch_size;
    if (scen.cluster.history_capacity > 0) cfg.history_capacity = scen.cluster.history_capacity;
    return run_async(scen, cfg, flags, duration, std::move(controller));
  }

  exp::Scenario s = exp::make_scenario(scen);
  exp::schedule_interference(*s.engine, scen, 0.0, duration);

  // Topology-wide attach: the routing controllers discover every dynamic
  // edge (these apps have one, spout -> control bolt); the elastic and
  // rate arms actuate the worker pool / spout throttle directly.
  if (controller) controller->attach(*s.engine);

  if (flags.has("fault-worker")) {
    dsps::FaultPlan plan;
    plan.ramp(flags.get_double("fault-at", duration / 3.0),
              static_cast<std::size_t>(flags.get_int("fault-worker", 1)),
              flags.get_double("fault-slowdown", 6.0), 6.0);
    s.engine->apply_fault_plan(plan);
  }

  std::printf("running %s for %.0fs (seed %llu)...\n", exp::app_name(scen.app), duration,
              (unsigned long long)scen.seed);
  s.engine->run_for(duration);

  const auto& history = s.engine->history();
  print_run_summary(history);
  std::printf("\ntotals: roots=%llu acked=%llu failed=%llu\n",
              (unsigned long long)s.engine->totals().roots_emitted,
              (unsigned long long)s.engine->totals().acked,
              (unsigned long long)s.engine->totals().failed);
  if (scen.cluster.flow.bounded()) {
    std::printf("flow control (%s, cap %zu): shed=%llu stall=%.1fs\n",
                runtime::overflow_policy_name(scen.cluster.flow.policy),
                scen.cluster.flow.queue_capacity,
                (unsigned long long)s.engine->totals().tuples_dropped_overflow,
                s.engine->flow_control()->total_stall_seconds());
  }
  if (controller) print_controller_summary(*controller);
  save_trace_if_requested(flags, history);
  return 0;
}

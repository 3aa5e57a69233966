#include "exp/reliability.hpp"

#include <algorithm>
#include <stdexcept>

#include "control/controller_factory.hpp"

namespace repro::exp {
namespace {

constexpr double kSlowdownRampSeconds = 6.0;
/// Pre-crash hang: real crashes are rarely clean fail-stops — the process
/// wedges first.
constexpr double kCrashHangSeconds = 1.5;

ScenarioRunResult run_mode(const ScenarioSpec& spec, const std::string& mode,
                           const control::ControllerConfig& cfg,
                           const std::shared_ptr<control::PerformancePredictor>& predictor) {
  if (mode == "stock") return run_scenario_with(spec, nullptr);
  if (mode == "oracle") {
    control::OracleController oracle(cfg.planner, cfg.control_interval);
    return run_scenario_with(spec, &oracle);
  }
  control::ControllerOptions opts;
  opts.predictive = cfg;
  if (mode == "framework") {
    if (!predictor) {
      throw std::invalid_argument("evaluate_reliability: the framework mode needs a fitted "
                                  "predictor");
    }
    opts.predictor = predictor;
    return run_scenario_with(spec, control::make_controller("drnn", opts).get());
  }
  if (mode == "reactive") {
    return run_scenario_with(spec, control::make_controller("observed", opts).get());
  }
  throw std::invalid_argument("evaluate_reliability: unknown mode \"" + mode +
                              "\" (use nofault|stock|framework|reactive|oracle)");
}

template <typename Metric>
double mean_after(const ScenarioRunResult& run, double t0, Metric metric) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const dsps::WindowSample& w : run.history) {
    if (w.time >= t0) {
      sum += metric(w);
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double throughput(const dsps::WindowSample& w) { return w.topology.throughput; }
double latency(const dsps::WindowSample& w) { return w.topology.avg_complete_latency; }

}  // namespace

std::size_t inject_reliability_fault(ScenarioSpec& spec, ReliabilityFault fault, double at,
                                     double magnitude) {
  ScenarioApp app = build_scenario_app(spec);
  dsps::Engine probe(app.topology, spec.cluster_config());
  std::vector<std::size_t> candidates = probe.workers_of(app.parts.front().control_bolt);
  if (candidates.empty()) {
    throw std::logic_error("inject_reliability_fault: no worker hosts the controlled bolt");
  }
  const std::size_t worker = candidates.front();

  spec.faults.clear();
  switch (fault) {
    case ReliabilityFault::kSlowdown:
      spec.faults.push_back({"ramp", at, worker, magnitude, kSlowdownRampSeconds});
      break;
    case ReliabilityFault::kHog:
      spec.faults.push_back({"hog", at, probe.worker(worker).machine, magnitude});
      break;
    case ReliabilityFault::kStall:
      for (double t = at; t < spec.duration; t += 2.0 * magnitude) {
        spec.faults.push_back({"stall", t, worker, magnitude});
      }
      break;
    case ReliabilityFault::kDrop:
      spec.faults.push_back({"drop", at, worker, magnitude});
      break;
    case ReliabilityFault::kCrash: {
      // Fail-stutter then fail-stop: the hang builds a queue the crash
      // then destroys.
      double hang = std::min(kCrashHangSeconds, 0.5 * magnitude);
      spec.faults.push_back({"stall", at, worker, hang});
      spec.faults.push_back({"crash", at + hang, worker});
      spec.faults.push_back({"restart", at + magnitude, worker});
      break;
    }
  }
  return worker;
}

ScenarioRunResult run_nofault(const ScenarioSpec& spec) {
  ScenarioSpec clean = spec;
  clean.faults.clear();
  return run_scenario_with(clean, nullptr);
}

std::vector<ReliabilityRun> evaluate_reliability(
    const ScenarioSpec& spec, const ScenarioRunResult& nofault,
    const std::vector<std::string>& modes, const control::ControllerConfig& controller,
    std::shared_ptr<control::PerformancePredictor> predictor) {
  if (spec.faults.empty()) {
    throw std::invalid_argument("evaluate_reliability: scenario " + spec.name +
                                " injects no fault");
  }
  const double t0 = spec.faults.front().at + 5.0;
  const double ref_throughput = mean_after(nofault, t0, throughput);
  const double ref_latency = mean_after(nofault, t0, latency);

  std::vector<ReliabilityRun> runs;
  for (const std::string& mode : modes) {
    ReliabilityRun r;
    r.mode = mode;
    r.result = mode == "nofault" ? nofault : run_mode(spec, mode, controller, predictor);
    r.mean_throughput_after = mean_after(r.result, t0, throughput);
    r.mean_latency_after = mean_after(r.result, t0, latency);
    if (mode == "nofault") {
      r.throughput_ratio = 1.0;
      r.latency_inflation = 1.0;
    } else {
      r.throughput_ratio = ref_throughput > 0.0 ? r.mean_throughput_after / ref_throughput : 0.0;
      r.latency_inflation = ref_latency > 0.0 ? r.mean_latency_after / ref_latency : 0.0;
    }
    runs.push_back(std::move(r));
  }
  return runs;
}

}  // namespace repro::exp

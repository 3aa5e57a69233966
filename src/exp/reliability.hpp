#pragma once
// Reliability evaluation (experiments F4/F5, T3/T4, A2): a ScenarioSpec
// with one misbehaving worker injected mid-run, run once per mode through
// run_scenario_with and summarized against the fault-free run:
//   nofault   — the spec without its faults, no control (the reference)
//   stock     — shuffle-equivalent routing, no control
//   framework — the predictive controller with a fitted DRNN
//   reactive  — same controller driven by the last *observed* value
//               (no prediction): the paper's implicit reactive baseline
//   oracle    — a controller that reads the injected fault directly
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "control/controller.hpp"
#include "exp/scenario_spec.hpp"

namespace repro::exp {

/// Fault kinds; each reads its `magnitude` differently.
enum class ReliabilityFault {
  kSlowdown,  ///< service-time factor, ramped in over 6 s
  kHog,       ///< core-units of hog load on the worker's machine
  kStall,     ///< seconds per stall; stalls repeat every 2x that until the run ends
  kDrop,      ///< per-tuple drop probability
  /// Hard worker crash: the worker hangs for 1.5 s (at most half the
  /// outage) starting at the fault time (fail-stutter — its queue builds
  /// up), then dies, then rejoins after `magnitude` seconds of total
  /// outage (executors are reassigned meanwhile; set
  /// ScenarioSpec::replay_on_failure for at-least-once recovery of the
  /// tuples the crash destroyed).
  kCrash,
};

/// Replace spec.faults with `fault` injected at `at` seconds on the first
/// worker hosting a task of the controlled bolt (read from a probe engine
/// built from the spec; placement is deterministic). Returns that worker.
std::size_t inject_reliability_fault(ScenarioSpec& spec, ReliabilityFault fault, double at,
                                     double magnitude);

/// One mode's run and its after-fault summary: means over the windows
/// from 5 s after the spec's first fault on, and their ratios to the
/// nofault run (1.0 for the nofault run itself; 0 when no nofault run
/// was asked for).
struct ReliabilityRun {
  std::string mode;
  ScenarioRunResult result;
  double mean_throughput_after = 0.0;
  double throughput_ratio = 0.0;
  double mean_latency_after = 0.0;
  double latency_inflation = 0.0;
};

/// Run `spec` once per listed mode, in order, each through one
/// run_scenario_with call. `controller` configures the framework,
/// reactive and oracle arms; `predictor` is the fitted model the
/// framework arm uses (required when "framework" is listed), so one model
/// can serve a whole fault sweep. Throws std::invalid_argument on an
/// unknown mode or a spec without faults.
std::vector<ReliabilityRun> evaluate_reliability(
    const ScenarioSpec& spec, const std::vector<std::string>& modes,
    const control::ControllerConfig& controller = {},
    std::shared_ptr<control::PerformancePredictor> predictor = nullptr);

}  // namespace repro::exp

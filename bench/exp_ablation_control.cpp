// Experiment A2: control-policy ablation — detector threshold and control
// interval — measured as end-to-end degradation under an 8x slowdown.
#include "bench_util.hpp"
#include "exp/reliability.hpp"

using namespace repro;

int main() {
  bench::banner("A2", "control-policy ablation (URL Count, 8x slowdown)");
  exp::ScenarioSpec spec;
  spec.name = "a2-control";
  spec.seed = 50;
  spec.interference.hog_intensity = 2.4;
  spec.controller = "drnn";
  spec.train_duration = 300.0;
  spec.interference.ramp_magnitude = 8.0;  // training ramps as strong as the fault
  const double fault_time = 40.0;
  exp::inject_reliability_fault(spec, exp::ReliabilityFault::kSlowdown, fault_time, 8.0);

  std::printf("pretraining one DRNN for the sweep...\n");
  auto predictor = exp::make_scenario_predictor(spec);
  // Only the controller settings vary, so one fault-free run is the
  // reference of the whole sweep.
  const exp::ScenarioRunResult nofault = exp::run_nofault(spec);

  common::Table table({"threshold", "interval(s)", "tput ratio", "latency inflation",
                       "transient peak(ms)"});
  for (double threshold : {1.2, 1.6, 2.2}) {
    for (double interval : {1.0, 4.0}) {
      control::ControllerConfig cfg;
      cfg.detector.threshold = threshold;
      cfg.control_interval = interval;
      const exp::ReliabilityRun framework =
          exp::evaluate_reliability(spec, nofault, {"framework"}, cfg, predictor).front();
      // Detection transient: worst window latency in the 25s after injection.
      double peak = 0.0;
      for (const auto& w : framework.result.history) {
        if (w.time >= fault_time && w.time <= fault_time + 25.0) {
          peak = std::max(peak, w.topology.avg_complete_latency);
        }
      }
      table.add_row({common::format_double(threshold, 1), common::format_double(interval, 0),
                     common::format_double(framework.throughput_ratio, 3),
                     common::format_double(framework.latency_inflation, 2),
                     common::format_double(peak * 1e3, 1)});
      std::printf("threshold %.1f interval %.0f done\n", threshold, interval);
    }
  }
  table.print("A2: framework degradation vs detector threshold and control interval");
  std::printf("\nexpected shape: steady-state inflation is flat (the probe trickle makes the\n"
              "policy robust), but the detection transient worsens with slower control\n"
              "intervals and higher thresholds\n");
  return 0;
}

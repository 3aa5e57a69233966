// Experiment F4: topology throughput over time with a misbehaving worker
// injected mid-run (8x slowdown ramp). Stock routing suffers; the
// framework's predictive bypass keeps throughput near the no-fault run.
#include "bench_util.hpp"
#include "exp/reliability.hpp"

using namespace repro;

int main() {
  bench::banner("F4", "reliability: throughput under a misbehaving worker (URL Count)");
  exp::ScenarioSpec spec;
  spec.name = "f4-throughput";
  spec.seed = 46;
  spec.duration = 150.0;
  spec.interference.hog_intensity = 2.4;
  spec.controller = "drnn";
  spec.train_duration = 300.0;
  spec.interference.ramp_magnitude = 8.0;  // training ramps as strong as the fault
  const double fault_time = 50.0;
  std::size_t worker =
      exp::inject_reliability_fault(spec, exp::ReliabilityFault::kSlowdown, fault_time, 8.0);

  std::printf("pretraining DRNN + running nofault/stock/framework/oracle...\n");
  auto predictor = exp::make_scenario_predictor(spec);
  std::vector<exp::ReliabilityRun> runs = exp::evaluate_reliability(
      spec, exp::run_nofault(spec), {"nofault", "stock", "framework", "oracle"}, {}, predictor);
  std::printf("faulted worker: %zu (8x slowdown ramped in at t=%.0fs)\n\n", worker, fault_time);

  const auto& nofault = runs[0].result.history;
  const auto& stock = runs[1].result.history;
  const auto& framework = runs[2].result.history;
  const auto& oracle = runs[3].result.history;
  common::Table table({"t(s)", "nofault", "stock", "framework", "oracle"});
  for (std::size_t i = 4; i < nofault.size(); i += 5) {
    table.add_row({common::format_double(nofault[i].time, 0),
                   common::format_double(nofault[i].topology.throughput, 0),
                   common::format_double(stock[i].topology.throughput, 0),
                   common::format_double(framework[i].topology.throughput, 0),
                   common::format_double(oracle[i].topology.throughput, 0)});
  }
  table.print("F4: throughput (tuples/s, every 5th window)");

  common::Table summary({"mode", "mean tput after fault", "ratio vs nofault", "failed tuples"});
  for (const auto& r : runs) {
    summary.add_row({r.mode, common::format_double(r.mean_throughput_after, 0),
                     common::format_double(r.throughput_ratio, 3),
                     std::to_string(r.result.totals.failed)});
  }
  summary.print("F4 summary");
  std::printf("\nexpected shape: stock degrades; framework within a few %% of nofault/oracle\n");
  return 0;
}

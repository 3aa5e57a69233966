// Experiment F5: complete latency over time with a misbehaving worker,
// on the Continuous Queries application. Queueing at the slow worker
// explodes stock latency; the framework stays near the no-fault baseline.
#include "bench_util.hpp"
#include "exp/reliability.hpp"

using namespace repro;

int main() {
  bench::banner("F5", "reliability: latency under a misbehaving worker (Continuous Queries)");
  exp::ScenarioSpec spec;
  spec.name = "f5-latency";
  spec.seed = 47;
  spec.duration = 150.0;
  spec.topologies.front().app = exp::AppKind::kContinuousQuery;
  spec.interference.hog_intensity = 2.4;
  spec.controller = "drnn";
  spec.train_duration = 300.0;
  spec.interference.ramp_magnitude = 6.0;  // training ramps as strong as the fault
  const double fault_time = 50.0;
  std::size_t worker =
      exp::inject_reliability_fault(spec, exp::ReliabilityFault::kSlowdown, fault_time, 6.0);

  std::printf("pretraining DRNN + running nofault/stock/framework/oracle...\n");
  std::vector<exp::ReliabilityRun> runs = exp::evaluate_reliability(
      spec, {"nofault", "stock", "framework", "oracle"}, {}, exp::make_scenario_predictor(spec));
  std::printf("faulted worker: %zu (6x slowdown ramped in at t=%.0fs)\n\n", worker, fault_time);

  const auto& nofault = runs[0].result.history;
  const auto& stock = runs[1].result.history;
  const auto& framework = runs[2].result.history;
  common::Table table({"t(s)", "nofault avg(ms)", "stock avg(ms)", "framework avg(ms)",
                       "stock p99(ms)", "framework p99(ms)"});
  for (std::size_t i = 4; i < nofault.size(); i += 5) {
    table.add_row({common::format_double(nofault[i].time, 0),
                   common::format_double(nofault[i].topology.avg_complete_latency * 1e3, 2),
                   common::format_double(stock[i].topology.avg_complete_latency * 1e3, 2),
                   common::format_double(framework[i].topology.avg_complete_latency * 1e3, 2),
                   common::format_double(stock[i].topology.p99_complete_latency * 1e3, 2),
                   common::format_double(framework[i].topology.p99_complete_latency * 1e3, 2)});
  }
  table.print("F5: complete latency (every 5th window)");

  common::Table summary({"mode", "mean latency after fault (ms)", "inflation vs nofault"});
  for (const auto& r : runs) {
    summary.add_row({r.mode, common::format_double(r.mean_latency_after * 1e3, 2),
                     common::format_double(r.latency_inflation, 2)});
  }
  summary.print("F5 summary");
  std::printf("\nexpected shape: stock latency explodes (queueing); framework stays near baseline\n");
  return 0;
}

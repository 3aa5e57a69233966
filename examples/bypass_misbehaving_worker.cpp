// End-to-end demo of the paper's headline behaviour: a worker degrades
// mid-run; the predictive controller (pretrained DRNN) sees its predicted
// processing time blow past the fleet median and re-routes tuples around
// it via dynamic grouping. Compare the printed throughput dip against the
// stock run.
//
// Build & run:   ./build/examples/bypass_misbehaving_worker
#include <cstdio>

#include "common/table.hpp"
#include "exp/reliability.hpp"

using namespace repro;

int main() {
  exp::ScenarioSpec spec;
  spec.name = "bypass-demo";
  spec.seed = 33;
  spec.interference.hog_intensity = 2.4;
  spec.controller = "drnn";
  spec.train_duration = 240.0;
  spec.interference.ramp_magnitude = 6.0;  // training ramps as strong as the fault
  const double fault_time = 40.0;
  std::size_t worker =
      exp::inject_reliability_fault(spec, exp::ReliabilityFault::kSlowdown, fault_time, 6.0);

  std::printf("pretraining DRNN on a %.0fs profiling trace, then running\n"
              "stock vs framework with a 6x slowdown injected at t=%.0fs...\n\n",
              spec.train_duration, fault_time);
  // No oracle run: keeps the demo quick.
  std::vector<exp::ReliabilityRun> runs = exp::evaluate_reliability(
      spec, {"nofault", "stock", "framework"}, {}, exp::make_scenario_predictor(spec));

  std::printf("faulted worker: %zu\n\n", worker);
  common::Table table({"t(s)", "nofault tput", "stock tput", "framework tput", "stock lat(ms)",
                       "framework lat(ms)"});
  const auto& nofault = runs[0].result.history;
  const auto& stock = runs[1].result.history;
  const auto& framework = runs[2].result.history;
  for (std::size_t i = 9; i < stock.size(); i += 10) {
    table.add_row({common::format_double(stock[i].time, 0),
                   common::format_double(nofault[i].topology.throughput, 0),
                   common::format_double(stock[i].topology.throughput, 0),
                   common::format_double(framework[i].topology.throughput, 0),
                   common::format_double(stock[i].topology.avg_complete_latency * 1e3, 1),
                   common::format_double(framework[i].topology.avg_complete_latency * 1e3, 1)});
  }
  table.print("throughput & latency (fault at t=40s)");

  common::Table summary({"mode", "tput after fault", "tput ratio vs nofault", "lat inflation",
                         "failed tuples"});
  for (const auto& r : runs) {
    summary.add_row({r.mode, common::format_double(r.mean_throughput_after, 0),
                     common::format_double(r.throughput_ratio, 3),
                     common::format_double(r.latency_inflation, 2),
                     std::to_string(r.result.totals.failed)});
  }
  summary.print("summary");
  return 0;
}

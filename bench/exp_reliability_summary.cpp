// Experiment T3: aggregate reliability across fault types — slowdown
// x{2,4,8}, co-located CPU hog, transient stalls, tuple drops — for stock
// vs framework vs oracle, one pretrained DRNN shared across the sweep.
#include "bench_util.hpp"
#include "exp/reliability.hpp"

using namespace repro;

int main() {
  bench::banner("T3", "reliability summary across fault types (URL Count)");

  // The registered t3-reliability course (seed 48, 120 s, fault at t=40)
  // plus the background hog interference this table has always run with.
  // Each case below replaces the course's fault with its own.
  exp::ScenarioSpec base = exp::ScenarioRegistry::instance().get("t3-reliability");
  base.interference.hog_intensity = 2.4;
  base.interference.ramp_magnitude = 8.0;  // train against the worst case of the sweep
  const double fault_time = base.faults.front().at;

  std::printf("pretraining one DRNN for the whole sweep...\n");
  auto predictor = exp::make_scenario_predictor(base);

  struct FaultCase {
    exp::ReliabilityFault fault;
    double magnitude;
    const char* label;
  };
  std::vector<FaultCase> cases = {
      {exp::ReliabilityFault::kSlowdown, 2.0, "slowdown x2"},
      {exp::ReliabilityFault::kSlowdown, 4.0, "slowdown x4"},
      {exp::ReliabilityFault::kSlowdown, 8.0, "slowdown x8"},
      {exp::ReliabilityFault::kHog, 4.0, "cpu-hog 4 cores"},
      {exp::ReliabilityFault::kStall, 2.0, "stall 2s bursts"},
      {exp::ReliabilityFault::kDrop, 0.3, "drop p=0.3"},
  };

  // The cases differ only in their fault, so one fault-free run is the
  // reference of the whole sweep.
  const exp::ScenarioRunResult nofault = exp::run_nofault(base);

  // "ctl ms" is wall-clock (mean controller round) and excluded from
  // byte-compare against recorded outputs.
  common::Table table({"fault", "mode", "tput ratio", "latency inflation", "failed", "ctl ms"});
  for (const auto& c : cases) {
    exp::ScenarioSpec spec = base;
    exp::inject_reliability_fault(spec, c.fault, fault_time, c.magnitude);
    for (const auto& r : exp::evaluate_reliability(
             spec, nofault, {"stock", "framework", "reactive", "oracle"}, {}, predictor)) {
      table.add_row({c.label, r.mode, common::format_double(r.throughput_ratio, 3),
                     common::format_double(r.latency_inflation, 2),
                     std::to_string(r.result.totals.failed),
                     common::format_double(r.result.mean_round_ms, 3)});
    }
    std::printf("%s done\n", c.label);
  }
  table.print("T3: degradation vs the no-fault reference");
  std::printf("\nexpected shape: framework within a few %% of oracle on every fault;\n"
              "stock suffers large latency inflation (and failures under drops)\n");
  return 0;
}

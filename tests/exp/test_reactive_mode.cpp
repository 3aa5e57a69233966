// Reactive-mode coverage: the last-observation controller must also bypass
// a sustained slowdown (it reacts a beat later than the predictive one,
// but steady-state faults are within its reach).
#include <gtest/gtest.h>

#include "exp/reliability.hpp"

namespace repro::exp {
namespace {

ScenarioSpec slowdown_spec(std::uint64_t seed, double duration, double fault_time,
                           double magnitude) {
  ScenarioSpec spec;
  spec.name = "reactive";
  spec.seed = seed;
  spec.duration = duration;
  spec.interference.hog_intensity = 2.4;
  inject_reliability_fault(spec, ReliabilityFault::kSlowdown, fault_time, magnitude);
  return spec;
}

TEST(ReactiveMode, BypassesSustainedSlowdown) {
  ScenarioSpec spec = slowdown_spec(61, 60.0, 20.0, 8.0);
  spec.interference.hog_intensity = 0.8;
  auto runs = evaluate_reliability(spec, run_nofault(spec), {"nofault", "stock", "reactive"});
  const ReliabilityRun& stock = runs[1];
  const ReliabilityRun& reactive = runs[2];
  EXPECT_LT(reactive.latency_inflation, stock.latency_inflation * 0.5);
  EXPECT_GT(reactive.throughput_ratio, 0.95);
}

TEST(ReactiveMode, RunsProduceAllRequestedModes) {
  ScenarioSpec spec = slowdown_spec(62, 30.0, 10.0, 6.0);
  const std::vector<std::string> modes = {"nofault", "stock", "reactive", "oracle"};
  auto runs = evaluate_reliability(spec, run_nofault(spec), modes);
  ASSERT_EQ(runs.size(), modes.size());
  for (std::size_t i = 0; i < modes.size(); ++i) {
    EXPECT_EQ(runs[i].mode, modes[i]);
    EXPECT_EQ(runs[i].result.history.size(), 30u) << modes[i];
  }
  // The controlled arms report their rounds; the uncontrolled ones none.
  EXPECT_EQ(runs[1].result.control_rounds, 0u);
  EXPECT_GT(runs[2].result.control_rounds, 0u);
  EXPECT_GT(runs[3].result.control_rounds, 0u);
}

TEST(ReactiveMode, EvaluationFailsClosed) {
  ScenarioSpec spec = slowdown_spec(63, 10.0, 5.0, 6.0);
  const ScenarioRunResult reference{};
  EXPECT_THROW(evaluate_reliability(spec, reference, {"bogus"}), std::invalid_argument);
  // The framework arm needs a fitted model; none is built implicitly.
  EXPECT_THROW(evaluate_reliability(spec, reference, {"framework"}), std::invalid_argument);
  spec.faults.clear();
  EXPECT_THROW(evaluate_reliability(spec, reference, {"stock"}), std::invalid_argument);
}

}  // namespace
}  // namespace repro::exp

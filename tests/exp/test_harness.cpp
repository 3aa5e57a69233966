// Harness tests on miniature scenarios: cheap models only (the full DRNN
// path is covered by the benches and control tests).
#include <gtest/gtest.h>

#include "exp/accuracy.hpp"
#include "exp/reliability.hpp"
#include "exp/scenarios.hpp"

namespace repro::exp {
namespace {

/// A URL Count spec under the experiments' background hog load.
ScenarioSpec harness_spec(std::uint64_t seed, double duration) {
  ScenarioSpec spec;
  spec.name = "harness";
  spec.seed = seed;
  spec.duration = duration;
  spec.interference.hog_intensity = 2.4;
  return spec;
}

TEST(Accuracy, CheapModelsOnShortTrace) {
  auto trace = collect_trace(harness_spec(13, 120.0));

  AccuracyOptions opt;
  opt.models = {"observed", "ma", "arima"};
  opt.seq_len = 8;
  auto result = evaluate_accuracy(trace, opt);
  ASSERT_EQ(result.models.size(), 3u);
  for (const auto& m : result.models) {
    EXPECT_GT(m.errors.n, 0u);
    EXPECT_GT(m.errors.mae, 0.0);
    EXPECT_GE(m.errors.rmse, m.errors.mae);
  }
  // Series data aligned.
  EXPECT_EQ(result.series_actual.size(), result.series_time.size());
  for (const auto& [name, preds] : result.series_predicted) {
    EXPECT_EQ(preds.size(), result.series_actual.size()) << name;
  }
}

TEST(Accuracy, HorizonReducesAccuracy) {
  auto trace = collect_trace(harness_spec(14, 150.0));

  AccuracyOptions h1, h4;
  h1.models = {"observed"};
  h1.seq_len = 8;
  h4 = h1;
  h4.horizon = 4;
  double e1 = evaluate_accuracy(trace, h1).models[0].errors.rmse;
  double e4 = evaluate_accuracy(trace, h4).models[0].errors.rmse;
  EXPECT_GT(e4, e1 * 0.8);  // h=4 should not be dramatically easier
}

TEST(Accuracy, UnknownModelThrows) {
  auto trace = collect_trace(harness_spec(15, 80.0));
  AccuracyOptions opt;
  opt.models = {"nope"};
  opt.seq_len = 8;
  EXPECT_THROW(evaluate_accuracy(trace, opt), std::invalid_argument);
}

TEST(Accuracy, TooShortTraceThrows) {
  std::vector<dsps::WindowSample> tiny(4);
  AccuracyOptions opt;
  EXPECT_THROW(evaluate_accuracy(tiny, opt), std::invalid_argument);
}

TEST(Reliability, StockDegradesFrameworkOracleRecovers) {
  ScenarioSpec spec = harness_spec(16, 60.0);
  spec.interference.hog_intensity = 0.8;  // keep the run mild and fast
  inject_reliability_fault(spec, ReliabilityFault::kSlowdown, 20.0, 8.0);
  // DRNN training is exercised elsewhere.
  auto runs = evaluate_reliability(spec, run_nofault(spec), {"nofault", "stock", "oracle"});
  ASSERT_EQ(runs.size(), 3u);
  const ReliabilityRun& nofault = runs[0];
  const ReliabilityRun& stock = runs[1];
  const ReliabilityRun& oracle = runs[2];
  // The slow worker must hurt stock latency far more than oracle latency.
  EXPECT_GT(stock.latency_inflation, oracle.latency_inflation * 2.0);
  EXPECT_LT(oracle.latency_inflation, 3.0);
  EXPECT_DOUBLE_EQ(nofault.throughput_ratio, 1.0);
}

TEST(Reliability, SeriesWellFormed) {
  ScenarioSpec spec = harness_spec(17, 40.0);
  inject_reliability_fault(spec, ReliabilityFault::kSlowdown, 15.0, 6.0);
  auto runs = evaluate_reliability(spec, run_nofault(spec), {"nofault", "stock"});
  ASSERT_EQ(runs.size(), 2u);
  for (const auto& r : runs) EXPECT_EQ(r.result.history.size(), 40u) << r.mode;
}

}  // namespace
}  // namespace repro::exp

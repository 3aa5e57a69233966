// Experiment T2: prediction accuracy on Continuous Queries.
#include "bench_util.hpp"
#include "exp/scenarios.hpp"

using namespace repro;

int main() {
  bench::banner("T2", "prediction accuracy, Continuous Queries");
  exp::ScenarioSpec spec;
  spec.name = "t2-trace";
  spec.seed = 43;
  spec.duration = 420.0;
  spec.topologies.front().app = exp::AppKind::kContinuousQuery;
  spec.interference.hog_intensity = 2.4;
  std::printf("collecting 420s trace (sensor stream, standing range queries)...\n");
  auto trace = exp::collect_trace(spec);

  exp::AccuracyOptions opt;
  opt.models = {"drnn", "svr", "arima", "hw", "observed", "ma"};
  opt.seed = 43;
  exp::AccuracyResult result = exp::evaluate_accuracy(trace, opt);

  bench::print_accuracy_table(result, "T2: one-step prediction error (70/30 temporal split)");
  std::printf("\nexpected shape: DRNN lowest on every metric\n");
  return 0;
}

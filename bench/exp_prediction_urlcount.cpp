// Experiment T1: prediction accuracy on Windowed URL Count.
// Reproduces the paper's headline claim — the DRNN beats ARIMA and SVR at
// forecasting each worker's next-window mean tuple processing time under
// co-location interference.
#include "bench_util.hpp"
#include "exp/scenarios.hpp"

using namespace repro;

int main() {
  bench::banner("T1", "prediction accuracy, Windowed URL Count");
  exp::ScenarioSpec spec;
  spec.name = "t1-trace";
  spec.seed = 42;
  spec.duration = 420.0;
  spec.interference.hog_intensity = 2.4;
  std::printf("collecting 420s trace (diurnal Zipf URL stream, hog interference)...\n");
  auto trace = exp::collect_trace(spec);

  exp::AccuracyOptions opt;
  opt.models = {"drnn", "svr", "arima", "hw", "observed", "ma"};
  opt.seed = 42;
  exp::AccuracyResult result = exp::evaluate_accuracy(trace, opt);

  bench::print_accuracy_table(result, "T1: one-step prediction error (70/30 temporal split)");
  std::printf("\nexpected shape: DRNN lowest on every metric; ARIMA worst under interference\n");
  return 0;
}

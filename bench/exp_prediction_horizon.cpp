// Experiment F2: prediction error vs forecast horizon (1, 2, 4, 8 windows
// ahead). All models degrade with horizon; the DRNN stays lowest.
#include "bench_util.hpp"
#include "exp/scenarios.hpp"

using namespace repro;

int main() {
  bench::banner("F2", "prediction error vs horizon (URL Count)");
  exp::ScenarioSpec spec;
  spec.name = "f2-trace";
  spec.seed = 44;
  spec.duration = 360.0;
  spec.interference.hog_intensity = 2.4;
  auto trace = exp::collect_trace(spec);

  common::Table table({"horizon(windows)", "DRNN-LSTM MAE(us)", "SVR MAE(us)", "ARIMA MAE(us)",
                       "Observed MAE(us)"});
  for (std::size_t h : {1u, 2u, 4u, 8u}) {
    exp::AccuracyOptions opt;
    opt.models = {"drnn", "svr", "arima", "observed"};
    opt.horizon = h;
    opt.seed = 44;
    exp::AccuracyResult r = exp::evaluate_accuracy(trace, opt);
    std::vector<std::string> row = {std::to_string(h)};
    for (const auto& m : r.models) row.push_back(common::format_double(m.errors.mae * 1e6, 2));
    table.add_row(row);
    std::printf("horizon %zu done\n", h);
  }
  table.print("F2: MAE vs horizon");
  std::printf("\nexpected shape: errors grow with horizon; DRNN remains lowest\n");
  return 0;
}

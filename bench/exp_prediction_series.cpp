// Experiment F1: predicted vs actual processing-time series for the most
// dynamic worker over the test span (DRNN tracks interference spikes,
// ARIMA lags, SVR smooths).
#include "bench_util.hpp"
#include "exp/scenarios.hpp"

using namespace repro;

int main() {
  bench::banner("F1", "predicted vs actual processing-time series (URL Count)");
  exp::ScenarioSpec spec;
  spec.name = "f1-trace";
  spec.seed = 42;
  spec.duration = 420.0;
  spec.interference.hog_intensity = 2.4;
  auto trace = exp::collect_trace(spec);

  exp::AccuracyOptions opt;
  opt.models = {"drnn", "svr", "arima"};
  opt.seed = 42;
  exp::AccuracyResult result = exp::evaluate_accuracy(trace, opt);

  std::printf("\nseries worker: %zu (values in microseconds)\n", result.series_worker);
  common::Table table({"t(s)", "actual", "DRNN-LSTM", "SVR", "ARIMA"});
  const auto& drnn = result.series_predicted.at("DRNN-LSTM");
  const auto& svr = result.series_predicted.at("SVR");
  const auto& arima = result.series_predicted.at("ARIMA");
  for (std::size_t i = 0; i < result.series_actual.size(); i += 2) {
    table.add_row({common::format_double(result.series_time[i], 0),
                   common::format_double(result.series_actual[i] * 1e6, 1),
                   common::format_double(drnn[i] * 1e6, 1),
                   common::format_double(svr[i] * 1e6, 1),
                   common::format_double(arima[i] * 1e6, 1)});
  }
  table.print("F1 series (every 2nd test window)");

  // Per-model error on this single worker's series.
  common::Table err({"model", "series MAE(us)"});
  for (const auto& [name, preds] : result.series_predicted) {
    auto metrics = common::compute_errors(result.series_actual, preds);
    err.add_row({name, common::format_double(metrics.mae * 1e6, 2)});
  }
  err.print("per-model error on the plotted series");
  return 0;
}

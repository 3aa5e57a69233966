// Experiment A1: DRNN architecture ablation — depth, width, cell type, and
// the value of the co-located-worker (interference) feature block.
#include "bench_util.hpp"
#include "control/drnn_predictor.hpp"
#include "exp/scenarios.hpp"

using namespace repro;

namespace {

struct Variant {
  std::string label;
  std::size_t layers;
  std::size_t hidden;
  nn::CellKind cell;
  bool interference_features;
};

exp::AccuracyOptions options_for(const Variant& v, std::uint64_t seed) {
  exp::AccuracyOptions opt;
  opt.models = {"drnn"};
  opt.seed = seed;
  opt.factory = [v, seed](const std::string&) -> std::unique_ptr<control::PerformancePredictor> {
    control::DrnnPredictorConfig cfg;
    cfg.num_layers = v.layers;
    cfg.hidden_size = v.hidden;
    cfg.cell = v.cell;
    cfg.dataset.features.include_colocated = v.interference_features;
    cfg.train.epochs = 30;
    cfg.seed = seed;
    cfg.train.seed = seed + 1;
    return std::make_unique<control::DrnnPredictor>(cfg);
  };
  return opt;
}

}  // namespace

int main() {
  bench::banner("A1", "DRNN architecture ablation (URL Count trace)");
  exp::ScenarioSpec spec;
  spec.name = "a1-trace";
  spec.seed = 49;
  spec.duration = 360.0;
  spec.interference.hog_intensity = 2.4;
  auto trace = exp::collect_trace(spec);

  std::vector<Variant> variants = {
      {"1 layer, 32 hidden, LSTM", 1, 32, nn::CellKind::kLstm, true},
      {"2 layers, 32 hidden, LSTM (default)", 2, 32, nn::CellKind::kLstm, true},
      {"3 layers, 32 hidden, LSTM", 3, 32, nn::CellKind::kLstm, true},
      {"2 layers, 16 hidden, LSTM", 2, 16, nn::CellKind::kLstm, true},
      {"2 layers, 64 hidden, LSTM", 2, 64, nn::CellKind::kLstm, true},
      {"2 layers, 32 hidden, GRU", 2, 32, nn::CellKind::kGru, true},
      {"2x32 LSTM, NO interference features", 2, 32, nn::CellKind::kLstm, false},
  };

  common::Table table({"variant", "MAE(us)", "RMSE(us)", "MAPE(%)", "fit(s)"});
  for (const auto& v : variants) {
    exp::AccuracyResult r = exp::evaluate_accuracy(trace, options_for(v, 49));
    const auto& m = r.models[0];
    table.add_row({v.label, common::format_double(m.errors.mae * 1e6, 2),
                   common::format_double(m.errors.rmse * 1e6, 2),
                   common::format_double(m.errors.mape, 2),
                   common::format_double(m.fit_seconds, 1)});
    std::printf("%s done\n", v.label.c_str());
  }
  table.print("A1: architecture ablation");
  std::printf("\nexpected shape: shallow recurrent stacks (1-2 layers) suffice at this\n"
              "scale — deeper stacks overfit; dropping the interference feature block\n"
              "hurts most (the paper's key design point)\n");
  return 0;
}

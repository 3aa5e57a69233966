// Train the DRNN performance predictor on a fresh trace, checkpoint it to
// disk, reload it, and verify the reloaded model predicts identically —
// the workflow for deploying a pretrained predictor with the controller.
//
// Build & run:   ./build/examples/train_and_save_drnn [checkpoint-path]
#include <cmath>
#include <cstdio>

#include "control/drnn_predictor.hpp"
#include "exp/scenarios.hpp"
#include "nn/serialize.hpp"

using namespace repro;

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "/tmp/drnn_checkpoint.txt";

  exp::ScenarioSpec spec;
  spec.name = "drnn-checkpoint";
  spec.seed = 9;
  spec.duration = 240.0;
  spec.interference.hog_intensity = 2.4;
  std::printf("collecting a 240s profiling trace...\n");
  std::vector<dsps::WindowSample> trace = exp::collect_trace(spec);
  std::vector<std::size_t> workers = exp::active_workers(trace);

  control::DrnnPredictorConfig cfg;
  cfg.seed = 9;
  cfg.train.seed = 10;
  control::DrnnPredictor predictor(cfg);
  std::printf("training DRNN (%zu active workers, %zu windows)...\n", workers.size(),
              trace.size());
  predictor.fit(trace, workers);
  std::printf("trained: %zu epochs, best val loss %.5f, %zu parameters\n",
              predictor.last_report().epochs_run, predictor.last_report().best_val_loss,
              predictor.model().parameter_count());

  nn::save_drnn_file(predictor.model(), path);
  std::printf("checkpoint written to %s\n", path.c_str());

  nn::Drnn reloaded = nn::load_drnn_file(path);
  // Same input sequence -> identical output.
  control::DatasetConfig ds = cfg.dataset;
  tensor::Matrix seq = control::latest_sequence(trace, workers.front(), ds);
  // The predictor scales internally; compare the raw network on the raw
  // (already meaningful) sequence instead.
  double a = predictor.model().predict(seq)[0];
  double b = reloaded.predict(seq)[0];
  std::printf("original model output: %.9f\nreloaded model output: %.9f\n", a, b);
  std::printf(std::abs(a - b) < 1e-9 ? "checkpoint round-trip OK\n"
                                     : "checkpoint round-trip MISMATCH\n");
  return std::abs(a - b) < 1e-9 ? 0 : 1;
}

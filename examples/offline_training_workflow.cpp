// Offline training workflow: collect a profiling trace once, persist it as
// CSV, then (possibly on another machine / later session) reload it, train
// the DRNN predictor, checkpoint the model and verify the checkpoint
// reloads to the same network — the deployment path for the controller.
// Exits 1 when the reloaded network's output differs from the trained one.
//
// Build & run:   ./build/examples/offline_training_workflow [workdir]
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "control/drnn_predictor.hpp"
#include "exp/scenarios.hpp"
#include "exp/trace_io.hpp"
#include "nn/serialize.hpp"

using namespace repro;

int main(int argc, char** argv) {
  std::filesystem::path dir = argc > 1 ? argv[1] : std::filesystem::temp_directory_path();
  std::string trace_path = (dir / "profiling_trace.csv").string();
  std::string model_path = (dir / "drnn_model.ckpt").string();

  // Step 1: collect and persist a profiling trace.
  exp::ScenarioSpec spec;
  spec.name = "offline-training";
  spec.seed = 77;
  spec.duration = 240.0;
  spec.interference.hog_intensity = 2.4;
  spec.interference.ramp_rate = 4.0;  // include misbehaviour episodes
  std::printf("collecting 240s profiling trace...\n");
  auto trace = exp::collect_trace(spec);
  exp::save_trace_csv(trace, trace_path);
  std::printf("trace saved to %s (%zu windows)\n", trace_path.c_str(), trace.size());

  // Step 2 (later / elsewhere): reload and train.
  auto reloaded = exp::load_trace_csv(trace_path);
  std::vector<std::size_t> workers = exp::active_workers(reloaded);
  control::DrnnPredictorConfig cfg;
  cfg.seed = 78;
  cfg.train.seed = 79;
  control::DrnnPredictor predictor(cfg);
  std::printf("training DRNN on the reloaded trace (%zu active workers)...\n", workers.size());
  predictor.fit(reloaded, workers);
  std::printf("trained in %zu epochs (best val loss %.5f)\n",
              predictor.last_report().epochs_run, predictor.last_report().best_val_loss);

  // Step 3: checkpoint the model for the controller to load at deploy time,
  // and check that the checkpoint restores the same network.
  nn::save_drnn_file(predictor.model(), model_path);
  std::printf("model checkpointed to %s\n", model_path.c_str());
  nn::Drnn restored = nn::load_drnn_file(model_path);
  // The predictor scales internally; compare the raw networks on the raw
  // (already meaningful) sequence instead.
  tensor::Matrix seq = control::latest_sequence(reloaded, workers.front(), cfg.dataset);
  double a = predictor.model().predict(seq)[0];
  double b = restored.predict(seq)[0];
  std::printf("original model output: %.9f\nrestored model output: %.9f\n", a, b);
  const bool round_trip_ok = std::abs(a - b) < 1e-9;
  std::printf(round_trip_ok ? "checkpoint round-trip OK\n" : "checkpoint round-trip MISMATCH\n");

  // Sanity: stream the trace as the controller would, then one live
  // prediction per worker.
  for (const auto& sample : reloaded) predictor.observe(sample);
  for (std::size_t w : workers) {
    std::printf("worker %zu predicted next-window proc time: %.1f us\n", w,
                predictor.predict_next(w) * 1e6);
  }
  return round_trip_ok ? 0 : 1;
}

// A DrnnPredictor with dataset.outputs > 1: one model whose output head
// forecasts several consecutive windows (extension X1).
#include <gtest/gtest.h>

#include <cmath>

#include "control/baseline_predictors.hpp"
#include "control/drnn_predictor.hpp"

namespace repro::control {
namespace {

/// Deterministic history: target follows a sine of the window index.
std::vector<dsps::WindowSample> sine_history(std::size_t n, double period = 30.0) {
  std::vector<dsps::WindowSample> hist;
  for (std::size_t i = 0; i < n; ++i) {
    dsps::WindowSample s;
    s.time = static_cast<double>(i + 1);
    dsps::WorkerWindowStats ws;
    ws.worker = 0;
    ws.machine = 0;
    ws.executed = 100;
    ws.avg_proc_time = 0.001 * (2.0 + std::sin(2.0 * M_PI * static_cast<double>(i) / period));
    ws.cpu_share = ws.avg_proc_time * 100.0;
    s.workers.push_back(ws);
    dsps::MachineWindowStats ms;
    ms.machine = 0;
    ms.load = ws.cpu_share;
    s.machines.push_back(ms);
    hist.push_back(std::move(s));
  }
  return hist;
}

TEST(MultiHorizon, DatasetShapes) {
  auto hist = sine_history(40);
  DatasetConfig cfg;
  cfg.seq_len = 8;
  cfg.outputs = 4;
  nn::SequenceDataset ds = make_pooled_drnn_dataset(hist, {0}, cfg);
  EXPECT_EQ(ds.size(), 40u - 8 - 4 + 1);
  ASSERT_FALSE(ds.targets.empty());
  EXPECT_EQ(ds.targets[0].size(), 4u);
  // Targets are consecutive windows after the input span.
  EXPECT_DOUBLE_EQ(ds.targets[0][0], hist[8].workers[0].avg_proc_time);
  EXPECT_DOUBLE_EQ(ds.targets[0][3], hist[11].workers[0].avg_proc_time);

  // A horizon shifts the first target; the outputs follow it.
  cfg.horizon = 3;
  ds = make_pooled_drnn_dataset(hist, {0}, cfg);
  EXPECT_EQ(ds.size(), 40u - 8 - 3 - 4 + 2);
  EXPECT_DOUBLE_EQ(ds.targets[0][0], hist[10].workers[0].avg_proc_time);
  EXPECT_DOUBLE_EQ(ds.targets.back()[3], hist.back().workers[0].avg_proc_time);
}

TEST(MultiHorizon, LearnsAndForecastsAllHorizons) {
  // A 4-window period: the four forecast windows hold three different
  // values, so an output read from the wrong column shows.
  auto hist = sine_history(260, 4.0);
  DrnnPredictorConfig cfg;
  cfg.dataset.seq_len = 10;
  cfg.dataset.outputs = 4;
  cfg.hidden_size = 12;
  cfg.num_layers = 1;
  cfg.dropout = 0.0;
  cfg.train.epochs = 25;
  cfg.seed = 3;
  cfg.train.seed = 4;
  DrnnPredictor model(cfg);
  std::vector<dsps::WindowSample> train(hist.begin(), hist.begin() + 200);
  model.fit(train, {0});
  EXPECT_TRUE(model.trained());

  // Forecast at the train boundary; compare against the known future.
  for (const auto& s : train) model.observe(s);
  std::vector<double> f;
  model.predict_horizons(0, f);
  ASSERT_EQ(f.size(), 4u);
  EXPECT_EQ(f[0], model.predict_next(0));
  for (std::size_t h = 0; h < 4; ++h) {
    double actual = hist[200 + h].workers[0].avg_proc_time;
    EXPECT_NEAR(f[h], actual, 0.4e-3) << "horizon " << h + 1;
    EXPECT_GE(f[h], 0.0);
  }
}

TEST(MultiHorizon, ErrorsOnMisuse) {
  DrnnPredictorConfig cfg;
  cfg.dataset.outputs = 0;
  EXPECT_THROW(DrnnPredictor{cfg}, std::invalid_argument);
  DatasetConfig two_outputs;
  two_outputs.outputs = 2;
  EXPECT_THROW(SvrPredictor{two_outputs}, std::invalid_argument);

  DrnnPredictor model{DrnnPredictorConfig{}};
  auto hist = sine_history(10);
  EXPECT_THROW(model.fit(hist, {0}), std::invalid_argument);
  std::vector<double> f;
  EXPECT_THROW(model.predict_horizons(0, f), std::logic_error);
}

TEST(MultiHorizon, DeterministicForSeed) {
  auto hist = sine_history(160);
  auto run = [&hist] {
    DrnnPredictorConfig cfg;
    cfg.dataset.seq_len = 8;
    cfg.dataset.outputs = 2;
    cfg.hidden_size = 8;
    cfg.num_layers = 1;
    cfg.dropout = 0.0;
    cfg.train.epochs = 5;
    cfg.seed = 9;
    cfg.train.seed = 10;
    DrnnPredictor model(cfg);
    model.fit(hist, {0});
    for (const auto& s : hist) model.observe(s);
    std::vector<double> f;
    model.predict_horizons(0, f);
    return f;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace repro::control

// End-to-end learning tests: the DRNN must actually learn sequence
// regression tasks that require memory.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/drnn.hpp"
#include "nn/trainer.hpp"

namespace repro::nn {
namespace {

/// Target = mean of the sequence's first feature (requires integrating
/// over time; a memoryless model can't do it from the last step alone).
SequenceDataset mean_task(std::size_t n, std::size_t t_len, std::uint64_t seed) {
  common::Pcg32 rng(seed, 0x90);
  SequenceDataset ds;
  for (std::size_t i = 0; i < n; ++i) {
    tensor::Matrix seq(t_len, 2);
    double sum = 0.0;
    for (std::size_t t = 0; t < t_len; ++t) {
      seq(t, 0) = rng.uniform(-1.0, 1.0);
      seq(t, 1) = rng.uniform(-1.0, 1.0);  // distractor
      sum += seq(t, 0);
    }
    ds.append(std::move(seq), {sum / static_cast<double>(t_len)});
  }
  return ds;
}

/// Noisy sine one-step-ahead forecasting.
SequenceDataset sine_task(std::size_t n, std::size_t t_len, std::uint64_t seed) {
  common::Pcg32 rng(seed, 0x91);
  std::vector<double> series;
  for (std::size_t i = 0; i < n + t_len + 1; ++i) {
    series.push_back(std::sin(0.3 * static_cast<double>(i)) + rng.normal(0.0, 0.02));
  }
  SequenceDataset ds;
  for (std::size_t i = 0; i < n; ++i) {
    tensor::Matrix seq(t_len, 1);
    for (std::size_t t = 0; t < t_len; ++t) seq(t, 0) = series[i + t];
    ds.append(std::move(seq), {series[i + t_len]});
  }
  return ds;
}

double mse_on(Drnn& model, const SequenceDataset& ds) {
  double sum = 0.0;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    double pred = model.predict(ds.sequences[i])[0];
    double e = pred - ds.targets[i][0];
    sum += e * e;
  }
  return sum / static_cast<double>(ds.size());
}

TEST(Drnn, LstmLearnsSequenceMean) {
  DrnnConfig cfg;
  cfg.input_size = 2;
  cfg.hidden_size = 16;
  cfg.num_layers = 1;
  cfg.seed = 1;
  Drnn model(cfg);

  SequenceDataset train = mean_task(400, 8, 2);
  SequenceDataset test = mean_task(100, 8, 3);

  double before = mse_on(model, test);
  TrainConfig tc;
  tc.epochs = 30;
  tc.learning_rate = 5e-3;
  tc.seed = 4;
  Trainer trainer(tc);
  trainer.fit(model, train);
  double after = mse_on(model, test);
  EXPECT_LT(after, before * 0.2);
  EXPECT_LT(after, 0.01);
}

TEST(Drnn, GruForecastsSine) {
  DrnnConfig cfg;
  cfg.input_size = 1;
  cfg.hidden_size = 12;
  cfg.num_layers = 1;
  cfg.cell = CellKind::kGru;
  cfg.seed = 5;
  Drnn model(cfg);

  SequenceDataset train = sine_task(500, 10, 6);
  SequenceDataset test = sine_task(100, 10, 7);

  TrainConfig tc;
  tc.epochs = 30;
  tc.learning_rate = 5e-3;
  tc.seed = 8;
  Trainer(tc).fit(model, train);
  EXPECT_LT(mse_on(model, test), 0.02);
}

TEST(Drnn, StackedBeatsRandomInit) {
  DrnnConfig cfg;
  cfg.input_size = 2;
  cfg.hidden_size = 8;
  cfg.num_layers = 2;
  cfg.dropout = 0.1;
  cfg.seed = 9;
  Drnn model(cfg);
  SequenceDataset train = mean_task(300, 6, 10);
  double before = mse_on(model, train);
  TrainConfig tc;
  tc.epochs = 25;
  tc.seed = 11;
  Trainer(tc).fit(model, train);
  EXPECT_LT(mse_on(model, train), before);
}

TEST(Drnn, DeterministicTrainingForSameSeed) {
  auto run = [] {
    DrnnConfig cfg;
    cfg.input_size = 2;
    cfg.hidden_size = 6;
    cfg.num_layers = 1;
    cfg.seed = 13;
    Drnn model(cfg);
    TrainConfig tc;
    tc.epochs = 5;
    tc.seed = 14;
    SequenceDataset train = mean_task(100, 5, 15);
    Trainer(tc).fit(model, train);
    return model.predict(train.sequences[0])[0];
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(Drnn, PredictShapeChecks) {
  DrnnConfig cfg;
  cfg.input_size = 3;
  cfg.seed = 16;
  Drnn model(cfg);
  EXPECT_THROW(model.predict(tensor::Matrix(4, 2)), std::invalid_argument);
  EXPECT_EQ(model.predict(tensor::Matrix(4, 3)).size(), 1u);
}

TEST(Drnn, ParameterCountMatchesArchitecture) {
  DrnnConfig cfg;
  cfg.input_size = 10;
  cfg.hidden_size = 8;
  cfg.num_layers = 1;
  cfg.cell = CellKind::kLstm;
  cfg.seed = 17;
  Drnn model(cfg);
  // LSTM: (10*32 + 8*32 + 32) + head: (8*1 + 1).
  EXPECT_EQ(model.parameter_count(), 10u * 32 + 8 * 32 + 32 + 8 + 1);
}

TEST(Trainer, EarlyStoppingStopsBeforeMaxEpochs) {
  DrnnConfig cfg;
  cfg.input_size = 2;
  cfg.hidden_size = 4;
  cfg.num_layers = 1;
  cfg.seed = 18;
  Drnn model(cfg);
  SequenceDataset train = mean_task(200, 5, 19);
  TrainConfig tc;
  tc.epochs = 500;
  tc.patience = 3;
  tc.seed = 20;
  Trainer trainer(tc);
  TrainReport report = trainer.fit(model, train);
  EXPECT_LT(report.epochs_run, 500u);
  EXPECT_FALSE(report.val_losses.empty());
}

TEST(Trainer, FitRestoresTheBestEpoch) {
  // A learning rate high enough for the validation loss to turn back up,
  // and a short patience: training runs past its best epoch, and fit()
  // must hand back that epoch's weights, not the last ones.
  DrnnConfig cfg;
  cfg.input_size = 2;
  cfg.hidden_size = 8;
  cfg.num_layers = 1;
  cfg.seed = 23;
  Drnn model(cfg);
  SequenceDataset data = mean_task(120, 5, 24);
  TrainConfig tc;
  tc.epochs = 200;
  tc.batch_size = 16;
  tc.learning_rate = 5e-2;
  tc.validation_fraction = 0.25;
  tc.patience = 2;
  tc.seed = 25;
  Trainer trainer(tc);
  TrainReport report = trainer.fit(model, data);
  ASSERT_FALSE(report.val_losses.empty());
  EXPECT_LT(report.best_epoch, report.epochs_run - 1);
  EXPECT_NE(report.val_losses.back(), report.best_val_loss);

  // The validation tail on its own: evaluate() batches and sums these rows
  // exactly as fit() did, so the restored model gives the best validation
  // loss bit for bit.
  const auto cut = static_cast<std::size_t>(static_cast<double>(data.size()) *
                                            (1.0 - tc.validation_fraction));
  SequenceDataset val;
  for (std::size_t i = cut; i < data.size(); ++i) val.append(data.sequences[i], data.targets[i]);
  EXPECT_EQ(trainer.evaluate(model, val), report.best_val_loss);
}

TEST(Trainer, EmptyDatasetThrows) {
  DrnnConfig cfg;
  cfg.seed = 21;
  Drnn model(cfg);
  Trainer trainer(TrainConfig{});
  EXPECT_THROW(trainer.fit(model, SequenceDataset{}), std::invalid_argument);
}

TEST(SequenceDataset, InconsistentShapeThrows) {
  SequenceDataset ds;
  ds.append(tensor::Matrix(3, 2), {0.0});
  EXPECT_THROW(ds.append(tensor::Matrix(4, 2), {0.0}), std::invalid_argument);
}

}  // namespace
}  // namespace repro::nn

#include "control/dataset.hpp"

#include <gtest/gtest.h>

#include "nn/trainer.hpp"

namespace repro::control {
namespace {

std::vector<dsps::WindowSample> synthetic_history(std::size_t n) {
  std::vector<dsps::WindowSample> hist;
  for (std::size_t i = 0; i < n; ++i) {
    dsps::WindowSample s;
    s.time = static_cast<double>(i + 1);
    for (std::size_t w = 0; w < 2; ++w) {
      dsps::WorkerWindowStats ws;
      ws.worker = w;
      ws.machine = 0;
      // Encode the window index in the stats so tests can verify alignment.
      ws.executed = i;
      ws.avg_proc_time = static_cast<double>(i) + 100.0 * static_cast<double>(w);
      s.workers.push_back(ws);
    }
    dsps::MachineWindowStats ms;
    ms.machine = 0;
    s.machines.push_back(ms);
    hist.push_back(std::move(s));
  }
  return hist;
}

TEST(Dataset, DrnnSampleCountAndAlignment) {
  auto hist = synthetic_history(20);
  DatasetConfig cfg;
  cfg.seq_len = 4;
  cfg.horizon = 1;
  nn::SequenceDataset ds = make_drnn_dataset(hist, 0, cfg);
  // 20 - 4 - 1 + 1 = 16 samples.
  EXPECT_EQ(ds.size(), 16u);
  // Sample 0: windows [0..4), target = window 4's proc time = 4.
  EXPECT_DOUBLE_EQ(ds.targets[0][0], 4.0);
  // First feature of each step is `executed` = window index.
  EXPECT_DOUBLE_EQ(ds.sequences[0](0, 0), 0.0);
  EXPECT_DOUBLE_EQ(ds.sequences[0](3, 0), 3.0);
  // Last sample: windows [15..19), target = window 19.
  EXPECT_DOUBLE_EQ(ds.targets[15][0], 19.0);
}

TEST(Dataset, HorizonShiftsTargets) {
  auto hist = synthetic_history(20);
  DatasetConfig cfg;
  cfg.seq_len = 4;
  cfg.horizon = 3;
  nn::SequenceDataset ds = make_drnn_dataset(hist, 0, cfg);
  EXPECT_EQ(ds.size(), 14u);
  EXPECT_DOUBLE_EQ(ds.targets[0][0], 6.0);  // window 4 + (3-1)
}

TEST(Dataset, PooledInterleavesWorkersByWindow) {
  auto hist = synthetic_history(10);
  DatasetConfig cfg;
  cfg.seq_len = 3;
  nn::SequenceDataset ds = make_pooled_drnn_dataset(hist, {0, 1}, cfg);
  EXPECT_EQ(ds.size(), 2u * (10 - 3));
  // Order: (window 0, worker 0), (window 0, worker 1), (window 1, worker 0)...
  EXPECT_DOUBLE_EQ(ds.targets[0][0], 3.0);
  EXPECT_DOUBLE_EQ(ds.targets[1][0], 103.0);
  EXPECT_DOUBLE_EQ(ds.targets[2][0], 4.0);
}

TEST(Dataset, TooShortHistoryGivesEmpty) {
  auto hist = synthetic_history(3);
  DatasetConfig cfg;
  cfg.seq_len = 8;
  EXPECT_EQ(make_drnn_dataset(hist, 0, cfg).size(), 0u);
  EXPECT_EQ(make_flat_dataset(hist, 0, cfg).y.size(), 0u);
}

TEST(Dataset, FlatDatasetFlattensSequence) {
  auto hist = synthetic_history(12);
  DatasetConfig cfg;
  cfg.seq_len = 4;
  FlatDataset flat = make_flat_dataset(hist, 0, cfg);
  nn::SequenceDataset seq = make_drnn_dataset(hist, 0, cfg);
  ASSERT_EQ(flat.y.size(), seq.size());
  std::size_t d = feature_dim(cfg.features);
  EXPECT_EQ(flat.x.cols(), cfg.seq_len * d);
  // Row 0 of flat == row-major flattening of sequence 0.
  for (std::size_t t = 0; t < cfg.seq_len; ++t) {
    for (std::size_t c = 0; c < d; ++c) {
      EXPECT_DOUBLE_EQ(flat.x(0, t * d + c), seq.sequences[0](t, c));
    }
  }
  EXPECT_DOUBLE_EQ(flat.y[0], seq.targets[0][0]);
}

TEST(Dataset, LatestSequenceIsTail) {
  auto hist = synthetic_history(10);
  DatasetConfig cfg;
  cfg.seq_len = 4;
  tensor::Matrix seq = latest_sequence(hist, 0, cfg);
  EXPECT_EQ(seq.rows(), 4u);
  EXPECT_DOUBLE_EQ(seq(0, 0), 6.0);  // windows 6..9
  EXPECT_DOUBLE_EQ(seq(3, 0), 9.0);
}

TEST(Dataset, LatestSequenceTooShortThrows) {
  auto hist = synthetic_history(2);
  DatasetConfig cfg;
  cfg.seq_len = 4;
  EXPECT_THROW(latest_sequence(hist, 0, cfg), std::invalid_argument);
}

TEST(Dataset, ZeroLengthConfigThrows) {
  auto hist = synthetic_history(10);
  DatasetConfig cfg;
  cfg.seq_len = 0;
  EXPECT_THROW(make_drnn_dataset(hist, 0, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace repro::control

#include "control/features.hpp"

#include <gtest/gtest.h>

namespace repro::control {
namespace {

dsps::WindowSample sample_with_workers() {
  dsps::WindowSample s;
  s.time = 10.0;
  // Machine 0: workers 0, 1, 2. Machine 1: worker 3.
  for (std::size_t w = 0; w < 4; ++w) {
    dsps::WorkerWindowStats ws;
    ws.worker = w;
    ws.machine = w < 3 ? 0 : 1;
    ws.executed = 100 * (w + 1);
    ws.received = 110 * (w + 1);
    ws.avg_proc_time = 0.001 * static_cast<double>(w + 1);
    ws.avg_queue_wait = 0.0005;
    ws.queue_len = w;
    ws.cpu_share = 0.1 * static_cast<double>(w + 1);
    ws.gc_pause = 0.01;
    ws.mem_mb = 200.0;
    s.workers.push_back(ws);
  }
  for (std::size_t m = 0; m < 2; ++m) {
    dsps::MachineWindowStats ms;
    ms.machine = m;
    ms.cpu_util = 0.5 + 0.1 * static_cast<double>(m);
    ms.load = 2.0;
    s.machines.push_back(ms);
  }
  return s;
}

TEST(Features, DimMatchesNames) {
  FeatureConfig cfg;
  EXPECT_EQ(feature_dim(cfg), feature_names(cfg).size());
  cfg.include_colocated = false;
  EXPECT_EQ(feature_dim(cfg), feature_names(cfg).size());
  cfg.include_colocated = true;
  cfg.max_colocated = 5;
  EXPECT_EQ(feature_dim(cfg), feature_names(cfg).size());
}

TEST(Features, VectorHasConfiguredDim) {
  dsps::WindowSample s = sample_with_workers();
  FeatureConfig cfg;
  std::vector<double> f = worker_features(s, 0, cfg);
  EXPECT_EQ(f.size(), feature_dim(cfg));
}

TEST(Features, WorkerLevelValues) {
  dsps::WindowSample s = sample_with_workers();
  FeatureConfig cfg;
  std::vector<double> f = worker_features(s, 1, cfg);
  EXPECT_DOUBLE_EQ(f[0], 200.0);              // executed
  EXPECT_DOUBLE_EQ(f[2], 0.002);              // avg_proc_time
  EXPECT_DOUBLE_EQ(f[8], 0.5);                // machine 0 cpu_util
}

TEST(Features, ColocatedSortedByCpuShare) {
  dsps::WindowSample s = sample_with_workers();
  FeatureConfig cfg;
  cfg.max_colocated = 2;
  // Worker 0 on machine 0 with neighbors 1 (0.2) and 2 (0.3): top neighbor
  // must be worker 2.
  std::vector<double> f = worker_features(s, 0, cfg);
  std::size_t base = feature_dim(FeatureConfig{false, 0});
  EXPECT_DOUBLE_EQ(f[base], 0.3);       // top co-located cpu_share
  EXPECT_DOUBLE_EQ(f[base + 1], 300.0); // its executed
  EXPECT_DOUBLE_EQ(f[base + 3], 0.2);   // second neighbor cpu_share
}

TEST(Features, PadsWhenFewNeighbors) {
  dsps::WindowSample s = sample_with_workers();
  FeatureConfig cfg;
  cfg.max_colocated = 3;
  // Worker 3 is alone on machine 1: all co-located slots zero.
  std::vector<double> f = worker_features(s, 3, cfg);
  std::size_t base = feature_dim(FeatureConfig{false, 0});
  for (std::size_t i = base; i < f.size(); ++i) EXPECT_DOUBLE_EQ(f[i], 0.0);
}

TEST(Features, DisabledColocatedBlockShrinksVector) {
  dsps::WindowSample s = sample_with_workers();
  FeatureConfig with, without;
  without.include_colocated = false;
  EXPECT_GT(worker_features(s, 0, with).size(), worker_features(s, 0, without).size());
}

TEST(Features, UnknownWorkerThrows) {
  dsps::WindowSample s = sample_with_workers();
  EXPECT_THROW(worker_features(s, 99, FeatureConfig{}), std::invalid_argument);
  EXPECT_THROW(worker_target(s, 99), std::invalid_argument);
}

TEST(Features, TargetIsAvgProcTime) {
  dsps::WindowSample s = sample_with_workers();
  EXPECT_DOUBLE_EQ(worker_target(s, 2), 0.003);
}

TEST(Features, TargetSeries) {
  std::vector<dsps::WindowSample> hist = {sample_with_workers(), sample_with_workers()};
  hist[1].workers[0].avg_proc_time = 0.123;
  std::vector<double> series = target_series(hist, 0);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0], 0.001);
  EXPECT_DOUBLE_EQ(series[1], 0.123);
}

/// `n` windows of sample_with_workers() whose values (and so the
/// co-located sort order) change from window to window.
std::vector<dsps::WindowSample> varying_windows(std::size_t n) {
  std::vector<dsps::WindowSample> out;
  for (std::size_t i = 0; i < n; ++i) {
    dsps::WindowSample s = sample_with_workers();
    s.time = static_cast<double>(i + 1);
    for (auto& ws : s.workers) {
      ws.executed += 7 * i + ws.worker;
      ws.avg_proc_time *= 1.0 + 0.1 * static_cast<double>(i);
      ws.queue_len = (i + ws.worker) % 5;
      ws.cpu_share = 0.1 * static_cast<double>(ws.worker + 1) +
                     0.15 * static_cast<double>((i + ws.worker) % 3);
    }
    for (auto& ms : s.machines) ms.cpu_util += 0.01 * static_cast<double>(i);
    out.push_back(std::move(s));
  }
  return out;
}

TEST(StreamingFeatureExtractor, WrappedRingRowsMatchWorkerFeatures) {
  FeatureConfig cfg;
  StreamingFeatureExtractor fx(cfg, 3);
  auto windows = varying_windows(10);  // the ring wraps three times
  for (const auto& s : windows) fx.observe(s);
  EXPECT_EQ(fx.windows_seen(), 10u);
  EXPECT_EQ(fx.dim(), feature_dim(cfg));

  tensor::Matrix out;
  for (std::size_t w = 0; w < 4; ++w) {
    EXPECT_EQ(fx.rows_of(w), 3u);
    for (std::size_t len = 1; len <= 3; ++len) {
      fx.sequence_into(w, len, out);
      ASSERT_EQ(out.rows(), len);
      ASSERT_EQ(out.cols(), fx.dim());
      for (std::size_t t = 0; t < len; ++t) {
        std::vector<double> expect = worker_features(windows[10 - len + t], w, cfg);
        for (std::size_t c = 0; c < expect.size(); ++c) {
          EXPECT_EQ(out(t, c), expect[c]) << "worker " << w << " len " << len << " row " << t;
        }
      }
    }
  }
}

TEST(StreamingFeatureExtractor, SequenceIntoRejectsMissingRows) {
  StreamingFeatureExtractor fx(FeatureConfig{}, 3);
  auto windows = varying_windows(10);
  tensor::Matrix out;
  // Worker 2 absent from the first window: its ring exists but is empty.
  dsps::WindowSample first = windows[0];
  first.workers.erase(first.workers.begin() + 2);
  fx.observe(first);
  EXPECT_THROW(fx.sequence_into(2, 1, out), std::invalid_argument);
  EXPECT_THROW(fx.sequence_into(7, 1, out), std::invalid_argument);  // id never seen
  fx.observe(windows[1]);
  EXPECT_THROW(fx.sequence_into(0, 3, out), std::invalid_argument);  // 2 rows retained
  for (std::size_t i = 2; i < windows.size(); ++i) fx.observe(windows[i]);
  EXPECT_THROW(fx.sequence_into(0, 4, out), std::invalid_argument);  // above capacity
  EXPECT_NO_THROW(fx.sequence_into(0, 3, out));
}

TEST(StreamingFeatureExtractor, ResetForgetsEverything) {
  FeatureConfig cfg;
  StreamingFeatureExtractor fx(cfg, 3);
  auto windows = varying_windows(10);
  for (const auto& s : windows) fx.observe(s);
  fx.reset();
  EXPECT_EQ(fx.windows_seen(), 0u);
  EXPECT_EQ(fx.capacity(), 3u);
  tensor::Matrix out;
  for (std::size_t w = 0; w < 4; ++w) {
    EXPECT_EQ(fx.rows_of(w), 0u);
    EXPECT_THROW(fx.sequence_into(w, 1, out), std::invalid_argument);
  }
  // A fresh stream starts from its own first window.
  fx.observe(windows[4]);
  EXPECT_EQ(fx.rows_of(1), 1u);
  EXPECT_THROW(fx.sequence_into(1, 2, out), std::invalid_argument);
  fx.sequence_into(1, 1, out);
  std::vector<double> expect = worker_features(windows[4], 1, cfg);
  for (std::size_t c = 0; c < expect.size(); ++c) EXPECT_EQ(out(0, c), expect[c]);
}

}  // namespace
}  // namespace repro::control

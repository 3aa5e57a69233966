// Predictor-stack tests on synthetic window histories (no engine run:
// cheap and targeted).
#include <gtest/gtest.h>

#include <cmath>

#include "control/baseline_predictors.hpp"
#include "control/drnn_predictor.hpp"
#include "control/predictor.hpp"

namespace repro::control {
namespace {

/// History where worker 0's processing time follows a sine of the machine
/// load with one-window delay — predictable from features, not from the
/// target series alone.
std::vector<dsps::WindowSample> feature_driven_history(std::size_t n, std::uint64_t seed) {
  common::Pcg32 rng(seed, 0xab);
  std::vector<dsps::WindowSample> hist;
  double load = 1.0;
  double prev_load = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    dsps::WindowSample s;
    s.time = static_cast<double>(i + 1);
    load = 1.0 + 0.8 * std::sin(2.0 * M_PI * static_cast<double>(i) / 40.0) +
           rng.normal(0.0, 0.02);
    dsps::WorkerWindowStats ws;
    ws.worker = 0;
    ws.machine = 0;
    ws.executed = 500;
    ws.received = 500;
    // Target responds to *last* window's load: the feature leads the target.
    ws.avg_proc_time = 0.001 * prev_load + rng.normal(0.0, 5e-6);
    ws.cpu_share = 0.3;
    s.workers.push_back(ws);
    dsps::MachineWindowStats ms;
    ms.machine = 0;
    ms.cpu_util = load / 2.0;
    ms.load = load;
    s.machines.push_back(ms);
    prev_load = load;
    hist.push_back(std::move(s));
  }
  return hist;
}

/// Four workers on two machines, each with its own scale and phase, so
/// their forecasts differ and a mixed-up batch row would show.
std::vector<dsps::WindowSample> four_worker_history(std::size_t n, std::uint64_t seed) {
  common::Pcg32 rng(seed, 0xcd);
  std::vector<dsps::WindowSample> hist;
  for (std::size_t i = 0; i < n; ++i) {
    dsps::WindowSample s;
    s.time = static_cast<double>(i + 1);
    for (std::size_t m = 0; m < 2; ++m) {
      dsps::MachineWindowStats ms;
      ms.machine = m;
      ms.load = 1.0 + 0.6 * std::sin(2.0 * M_PI * static_cast<double>(i + 7 * m) / 30.0);
      ms.cpu_util = ms.load / 2.0;
      s.machines.push_back(ms);
    }
    for (std::size_t w = 0; w < 4; ++w) {
      dsps::WorkerWindowStats ws;
      ws.worker = w;
      ws.machine = w % 2;
      ws.executed = 400 + 50 * w;
      ws.received = ws.executed;
      ws.avg_proc_time = 0.001 * static_cast<double>(w + 1) * s.machines[w % 2].load +
                         rng.normal(0.0, 5e-6);
      ws.cpu_share = 0.2 + 0.1 * static_cast<double>(w);
      s.workers.push_back(ws);
    }
    hist.push_back(std::move(s));
  }
  return hist;
}

void observe_all(PerformancePredictor& p, const std::vector<dsps::WindowSample>& hist) {
  for (const auto& s : hist) p.observe(s);
}

TEST(ObservedPredictor, ReturnsLastValue) {
  auto hist = feature_driven_history(10, 1);
  ObservedPredictor p;
  EXPECT_DOUBLE_EQ(p.predict_next(0), 0.0);
  observe_all(p, hist);
  EXPECT_DOUBLE_EQ(p.predict_next(0), hist.back().workers[0].avg_proc_time);
}

TEST(MovingAveragePredictor, AveragesTail) {
  auto hist = feature_driven_history(20, 2);
  MovingAverageWindowPredictor p(4);
  observe_all(p, hist);
  double expected = 0.0;
  for (std::size_t i = 16; i < 20; ++i) expected += hist[i].workers[0].avg_proc_time;
  expected /= 4.0;
  EXPECT_NEAR(p.predict_next(0), expected, 1e-15);
}

TEST(ArimaPredictor, TracksSeriesLevel) {
  auto hist = feature_driven_history(200, 3);
  ArimaPredictor p;
  p.fit(hist, {0});
  observe_all(p, hist);
  double pred = p.predict_next(0);
  double last = hist.back().workers[0].avg_proc_time;
  EXPECT_NEAR(pred, last, 0.5e-3);
  EXPECT_GT(pred, 0.0);
}

TEST(ArimaPredictor, ShortHistoryFallsBack) {
  auto hist = feature_driven_history(5, 4);
  ArimaPredictor p;
  p.fit(hist, {0});
  observe_all(p, hist);
  EXPECT_DOUBLE_EQ(p.predict_next(0), hist.back().workers[0].avg_proc_time);
}

TEST(SvrPredictor, LearnsFeatureDrivenTarget) {
  auto hist = feature_driven_history(260, 5);
  DatasetConfig ds;
  ds.seq_len = 4;
  SvrPredictor p(ds);
  std::vector<dsps::WindowSample> train(hist.begin(), hist.begin() + 200);
  p.fit(train, {0});
  observe_all(p, train);
  // One-step predictions over the tail should beat predicting the mean.
  double err = 0.0, err_mean = 0.0;
  double mean = 0.0;
  for (std::size_t i = 0; i < 200; ++i) mean += hist[i].workers[0].avg_proc_time;
  mean /= 200.0;
  for (std::size_t i = 200; i + 1 < hist.size(); ++i) {
    p.observe(hist[i]);
    double pred = p.predict_next(0);
    double actual = hist[i + 1].workers[0].avg_proc_time;
    err += std::abs(pred - actual);
    err_mean += std::abs(mean - actual);
  }
  EXPECT_LT(err, err_mean);
}

TEST(DrnnPredictor, BeatsNaiveOnFeatureDrivenTarget) {
  auto hist = feature_driven_history(320, 6);
  DrnnPredictorConfig cfg;
  cfg.dataset.seq_len = 8;
  cfg.hidden_size = 16;
  cfg.num_layers = 1;
  cfg.train.epochs = 20;
  cfg.seed = 6;
  cfg.train.seed = 7;
  DrnnPredictor p(cfg);
  std::vector<dsps::WindowSample> train(hist.begin(), hist.begin() + 260);
  p.fit(train, {0});
  EXPECT_TRUE(p.trained());
  observe_all(p, train);

  double err_drnn = 0.0, err_naive = 0.0;
  for (std::size_t i = 260; i + 1 < hist.size(); ++i) {
    p.observe(hist[i]);
    double actual = hist[i + 1].workers[0].avg_proc_time;
    err_drnn += std::abs(p.predict_next(0) - actual);
    err_naive += std::abs(hist[i].workers[0].avg_proc_time - actual);
  }
  EXPECT_LT(err_drnn, err_naive);
}

TEST(DrnnPredictor, PredictBeforeFitThrows) {
  DrnnPredictor p{DrnnPredictorConfig{}};
  observe_all(p, feature_driven_history(40, 8));
  EXPECT_THROW(p.predict_next(0), std::logic_error);
}

TEST(DrnnPredictor, TooShortTraceThrows) {
  DrnnPredictor p{DrnnPredictorConfig{}};
  auto hist = feature_driven_history(10, 9);
  EXPECT_THROW(p.fit(hist, {0}), std::invalid_argument);
}

TEST(DrnnPredictor, NonNegativePredictions) {
  auto hist = feature_driven_history(120, 10);
  DrnnPredictorConfig cfg;
  cfg.dataset.seq_len = 6;
  cfg.hidden_size = 8;
  cfg.num_layers = 1;
  cfg.train.epochs = 3;
  DrnnPredictor p(cfg);
  p.fit(hist, {0});
  observe_all(p, hist);
  EXPECT_GE(p.predict_next(0), 0.0);
}

TEST(MakePredictor, EveryRegisteredNameRoundTrips) {
  // predictor_names() is the factory's documented surface: every listed
  // name must construct, carry a non-empty display name, and agree on
  // basic contract invariants.
  ASSERT_FALSE(predictor_names().empty());
  for (const std::string& name : predictor_names()) {
    auto p = make_predictor(name);
    ASSERT_NE(p, nullptr) << name;
    EXPECT_FALSE(p->name().empty()) << name;
    EXPECT_GE(p->min_history(), 1u) << name;
    EXPECT_GE(p->stream_window(), p->min_history()) << name;
  }
  EXPECT_THROW(make_predictor("nope"), std::invalid_argument);
  EXPECT_THROW(make_predictor(""), std::invalid_argument);
}

TEST(MakePredictor, NamesRoundTrip) {
  EXPECT_EQ(make_predictor("drnn")->name(), "DRNN-LSTM");
  EXPECT_EQ(make_predictor("drnn-lstm")->name(), "DRNN-LSTM");
  EXPECT_EQ(make_predictor("drnn-gru")->name(), "DRNN-GRU");
  EXPECT_EQ(make_predictor("arima")->name(), "ARIMA");
  EXPECT_EQ(make_predictor("svr")->name(), "SVR");
  EXPECT_EQ(make_predictor("hw")->name(), "HoltWinters");
  EXPECT_EQ(make_predictor("observed")->name(), "Observed");
  EXPECT_EQ(make_predictor("ma")->name(), "MovingAvg");
}

// stream_window() is all predict_next reads: a predictor fed a long run
// must give the bits of one fed only the run's last stream_window()
// windows. The accuracy harness and the controllers stream whole traces
// and rely on this.
TEST(StreamingPredictors, StreamWindowHoldsEverythingPredictNextReads) {
  auto hist = feature_driven_history(300, 11);
  const std::vector<dsps::WindowSample> head(hist.begin(), hist.begin() + 64);  // cheap fits
  for (const std::string& name : predictor_names()) {
    auto p = make_predictor(name, 21);
    p->fit(head, {0});
    observe_all(*p, hist);
    EXPECT_EQ(p->observed_windows(), hist.size()) << name;
    const double full = p->predict_next(0);

    const std::size_t window = p->stream_window();
    ASSERT_LT(window, hist.size()) << name;  // or the two streams are the same
    p->reset_stream();
    for (std::size_t i = hist.size() - window; i < hist.size(); ++i) p->observe(hist[i]);
    EXPECT_EQ(p->predict_next(0), full) << name;
  }
}

// A control round asks for all of an edge's workers in one call; each
// answer must be exactly the bits of that worker's own predict_next.
TEST(StreamingPredictors, DrnnPredictWorkersMatchesPerWorkerCalls) {
  auto hist = four_worker_history(160, 14);
  DrnnPredictorConfig cfg;
  cfg.train.epochs = 4;  // cheap fit: we compare predict paths, not skill
  DrnnPredictor p(cfg);
  p.fit(hist, {0, 1, 2, 3});

  auto expect_per_worker = [&p](const std::vector<std::size_t>& workers) {
    std::vector<double> batched;
    p.predict_workers(workers, batched);
    ASSERT_EQ(batched.size(), workers.size());
    for (std::size_t i = 0; i < workers.size(); ++i) {
      EXPECT_EQ(batched[i], p.predict_next(workers[i])) << "entry " << i;
    }
  };

  for (std::size_t i = 0; i < 100; ++i) p.observe(hist[i]);
  std::vector<double> round;
  p.predict_workers({0, 1, 2, 3}, round);
  EXPECT_NE(round[0], round[3]);  // distinct rows, or the checks below prove little
  expect_per_worker({0, 1, 2, 3});  // an ordinary round's task workers
  expect_per_worker({2, 0, 2, 3, 1});  // a worker listed twice
  expect_per_worker({});

  // A second stream after reset_stream(), cut at a different point.
  p.reset_stream();
  for (std::size_t i = 40; i < hist.size(); ++i) p.observe(hist[i]);
  expect_per_worker({0, 1, 2, 3});
  expect_per_worker({3, 3});
}

TEST(StreamingPredictors, ResetStreamForgetsSamples) {
  auto hist = feature_driven_history(50, 13);
  auto p = make_predictor("observed");
  for (const auto& s : hist) p->observe(s);
  EXPECT_EQ(p->observed_windows(), hist.size());
  p->reset_stream();
  EXPECT_EQ(p->observed_windows(), 0u);
  // After re-observing a different tail the prediction tracks it.
  p->observe(hist.front());
  EXPECT_DOUBLE_EQ(p->predict_next(0), hist.front().workers[0].avg_proc_time);
}

}  // namespace
}  // namespace repro::control

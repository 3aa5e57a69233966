#include "exp/trace_io.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "control/features.hpp"
#include "exp/scenarios.hpp"

namespace repro::exp {
namespace {

class TraceIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() / "repro_trace.csv").string();
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::string path_;
};

TEST_F(TraceIoTest, RoundTripRealTrace) {
  ScenarioSpec spec;
  spec.name = "trace-io";
  spec.seed = 31;
  spec.duration = 12.0;
  spec.interference.hog_intensity = 2.4;
  std::vector<dsps::WindowSample> trace = collect_trace(spec);
  save_trace_csv(trace, path_);
  std::vector<dsps::WindowSample> loaded = load_trace_csv(path_);

  ASSERT_EQ(loaded.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded[i].time, trace[i].time);
    ASSERT_EQ(loaded[i].tasks.size(), trace[i].tasks.size());
    ASSERT_EQ(loaded[i].workers.size(), trace[i].workers.size());
    ASSERT_EQ(loaded[i].machines.size(), trace[i].machines.size());
    for (std::size_t t = 0; t < trace[i].tasks.size(); ++t) {
      EXPECT_EQ(loaded[i].tasks[t].component, trace[i].tasks[t].component);
      EXPECT_EQ(loaded[i].tasks[t].executed, trace[i].tasks[t].executed);
      EXPECT_DOUBLE_EQ(loaded[i].tasks[t].avg_exec_latency, trace[i].tasks[t].avg_exec_latency);
    }
    for (std::size_t w = 0; w < trace[i].workers.size(); ++w) {
      EXPECT_DOUBLE_EQ(loaded[i].workers[w].avg_proc_time, trace[i].workers[w].avg_proc_time);
      EXPECT_DOUBLE_EQ(loaded[i].workers[w].cpu_share, trace[i].workers[w].cpu_share);
    }
    EXPECT_EQ(loaded[i].topology.acked, trace[i].topology.acked);
    EXPECT_DOUBLE_EQ(loaded[i].topology.avg_complete_latency,
                     trace[i].topology.avg_complete_latency);
  }
}

TEST_F(TraceIoTest, LoadedTraceTrainsIdentically) {
  // The downstream use case: features built from a reloaded trace must be
  // identical to features from the original.
  ScenarioSpec spec;
  spec.name = "trace-io";
  spec.seed = 32;
  spec.duration = 10.0;
  spec.interference.hog_intensity = 2.4;
  auto trace = collect_trace(spec);
  save_trace_csv(trace, path_);
  auto loaded = load_trace_csv(path_);

  control::FeatureConfig fc;
  std::vector<std::size_t> workers = active_workers(trace);
  ASSERT_FALSE(workers.empty());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    auto a = control::worker_features(trace[i], workers[0], fc);
    auto b = control::worker_features(loaded[i], workers[0], fc);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) EXPECT_DOUBLE_EQ(a[k], b[k]);
  }
}

TEST_F(TraceIoTest, MissingFileThrows) {
  EXPECT_THROW(load_trace_csv("/no/such/trace.csv"), std::runtime_error);
}

TEST_F(TraceIoTest, BadHeaderThrows) {
  {
    std::ofstream out(path_);
    out << "bogus,header\n1,2\n";
  }
  EXPECT_THROW(load_trace_csv(path_), std::runtime_error);
}

}  // namespace
}  // namespace repro::exp

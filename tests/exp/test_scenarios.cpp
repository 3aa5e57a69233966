#include "exp/scenarios.hpp"

#include <gtest/gtest.h>

namespace repro::exp {
namespace {

/// A URL Count trace spec under the experiments' background hog load.
ScenarioSpec trace_spec(std::uint64_t seed, double duration) {
  ScenarioSpec spec;
  spec.name = "trace";
  spec.seed = seed;
  spec.duration = duration;
  spec.interference.hog_intensity = 2.4;
  return spec;
}

/// The spec defaults are the cluster every experiment table was recorded
/// on; changing one moves them all.
TEST(Scenarios, SpecDefaultsAreTheExperimentCluster) {
  dsps::ClusterConfig cfg = trace_spec(5, 10.0).cluster_config();
  EXPECT_EQ(cfg.machines, 3u);
  EXPECT_EQ(cfg.workers_per_machine, 2u);
  EXPECT_DOUBLE_EQ(cfg.cores_per_machine, 2.0);
  EXPECT_DOUBLE_EQ(cfg.window_seconds, 1.0);
  EXPECT_DOUBLE_EQ(cfg.service_noise_cv, 0.15);
  EXPECT_DOUBLE_EQ(cfg.ack_timeout, 8.0);
  EXPECT_EQ(cfg.max_spout_pending, 4000u);
  EXPECT_DOUBLE_EQ(cfg.gc_interval_mean, 20.0);
  EXPECT_DOUBLE_EQ(cfg.gc_pause_mean, 0.03);
  EXPECT_EQ(cfg.seed, 5u);
}

TEST(Scenarios, BuildScenarioAppBothApps) {
  for (AppKind app : {AppKind::kUrlCount, AppKind::kContinuousQuery}) {
    ScenarioSpec spec = trace_spec(3, 10.0);
    spec.topologies.front().app = app;
    ScenarioApp built = build_scenario_app(spec);
    const apps::BuiltApp& part = built.parts.front();
    ASSERT_NE(part.ratio, nullptr);
    EXPECT_TRUE(built.topology.has_component(part.spout_name));
    EXPECT_TRUE(built.topology.has_component(part.control_bolt));
  }
}

TEST(Scenarios, CollectTraceProducesWindows) {
  std::vector<dsps::WindowSample> trace = collect_trace(trace_spec(7, 30.0));
  EXPECT_EQ(trace.size(), 30u);
  EXPECT_FALSE(trace[0].workers.empty());
  EXPECT_FALSE(trace[0].machines.empty());
}

TEST(Scenarios, InterferenceMovesMachineLoad) {
  ScenarioSpec calm = trace_spec(8, 40.0);
  calm.interference.hog_intensity = 0.0;
  ScenarioSpec noisy = trace_spec(8, 40.0);

  auto trace_calm = collect_trace(calm);
  auto trace_noisy = collect_trace(noisy);
  double load_calm = 0.0, load_noisy = 0.0;
  for (std::size_t i = 0; i < 40; ++i) {
    load_calm += trace_calm[i].machines[0].load;
    load_noisy += trace_noisy[i].machines[0].load;
  }
  EXPECT_GT(load_noisy, load_calm + 10.0);
}

TEST(Scenarios, RampsInjectSlowdownEpisodes) {
  ScenarioSpec spec = trace_spec(9, 120.0);
  spec.interference.hog_intensity = 0.0;
  spec.interference.ramp_rate = 20.0;  // frequent ramps
  spec.interference.ramp_magnitude = 5.0;

  auto trace = collect_trace(spec);
  // Some window must show a strongly inflated processing time.
  double max_ratio = 0.0;
  std::vector<std::size_t> workers = active_workers(trace);
  for (std::size_t w : workers) {
    std::vector<double> series;
    for (const auto& s : trace) {
      double v = 0.0;
      for (const auto& ws : s.workers) {
        if (ws.worker == w) v = ws.avg_proc_time;
      }
      series.push_back(v);
    }
    double base = 1e18, peak = 0.0;
    for (double v : series) {
      if (v > 0) base = std::min(base, v);
      peak = std::max(peak, v);
    }
    if (base < 1e17) max_ratio = std::max(max_ratio, peak / base);
  }
  EXPECT_GT(max_ratio, 2.0);
}

TEST(Scenarios, ActiveWorkersExcludesIdle) {
  auto trace = collect_trace(trace_spec(10, 20.0));
  std::vector<std::size_t> active = active_workers(trace);
  EXPECT_FALSE(active.empty());
  EXPECT_LT(active.size(), trace[0].workers.size() + 1);
  for (std::size_t w : active) {
    std::uint64_t executed = 0;
    for (const auto& s : trace) executed += s.workers[w].executed;
    EXPECT_GT(executed, 0u);
  }
}

TEST(Scenarios, TracesAreDeterministic) {
  auto a = collect_trace(trace_spec(11, 15.0));
  auto b = collect_trace(trace_spec(11, 15.0));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].topology.acked, b[i].topology.acked);
    EXPECT_DOUBLE_EQ(a[i].workers[1].avg_proc_time, b[i].workers[1].avg_proc_time);
  }
}

TEST(Scenarios, AppNames) {
  EXPECT_STREQ(app_name(AppKind::kUrlCount), "url-count");
  EXPECT_STREQ(app_name(AppKind::kContinuousQuery), "continuous-query");
}

TEST(Scenarios, AppNameFailsClosedOnBadEnum) {
  // An out-of-range value (bad cast, corrupted spec) must throw, not
  // return a placeholder that leaks into tables and registry listings.
  EXPECT_THROW(app_name(static_cast<AppKind>(17)), std::invalid_argument);
}

TEST(Scenarios, ParseAppKindRoundTripsAndFailsClosed) {
  EXPECT_EQ(parse_app_kind("url-count"), AppKind::kUrlCount);
  EXPECT_EQ(parse_app_kind("continuous-query"), AppKind::kContinuousQuery);
  EXPECT_THROW(parse_app_kind("word-count"), std::invalid_argument);
}

}  // namespace
}  // namespace repro::exp

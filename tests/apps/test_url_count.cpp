#include "apps/url_count.hpp"

#include <gtest/gtest.h>

#include "dsps/engine.hpp"
#include "exp/scenarios.hpp"

namespace repro::apps {
namespace {

dsps::ClusterConfig small_cluster() {
  dsps::ClusterConfig cfg;
  cfg.machines = 2;
  cfg.cores_per_machine = 4.0;
  cfg.workers_per_machine = 2;
  cfg.seed = 11;
  return cfg;
}

TEST(UrlCount, BuildsExpectedTopology) {
  UrlCountOptions opt;
  BuiltApp app = build_url_count(opt);
  EXPECT_EQ(app.topology.name, "url-count");
  EXPECT_TRUE(app.topology.has_component("urls"));
  EXPECT_TRUE(app.topology.has_component("counter"));
  EXPECT_TRUE(app.topology.has_component("aggregator"));
  ASSERT_NE(app.ratio, nullptr);
  EXPECT_EQ(app.ratio->size(), opt.counter_parallelism);
}

TEST(UrlCount, ShuffleVariantHasNoRatio) {
  UrlCountOptions opt;
  opt.use_dynamic_grouping = false;
  BuiltApp app = build_url_count(opt);
  EXPECT_EQ(app.ratio, nullptr);
}

TEST(UrlCount, CountsAreConservedEndToEnd) {
  // Every URL the spout emits must eventually be counted exactly once in
  // the aggregators' grand total — under *any* split ratio.
  UrlCountOptions opt;
  opt.spout.rate.base_rate = 500;
  opt.spout.rate.amplitude = 0;
  opt.spout.seed = 2;
  BuiltApp app = build_url_count(opt);
  dsps::Engine engine(app.topology, small_cluster());
  engine.run_for(10.0);
  app.ratio->set_ratios({0.7, 0.1, 0.1, 0.1});
  engine.run_for(10.0);

  // Sum of counter window emissions == urls processed; compare spout roots
  // vs aggregator receipts. Partial-count tuples carry (url, count); total
  // received by aggregators over the run equals total partial emissions.
  std::uint64_t spout_emits = engine.totals().roots_emitted;
  std::uint64_t counted = 0;
  auto [clo, chi] = engine.tasks_of("counter");
  for (const auto& w : engine.window_history().samples()) {
    for (std::size_t t = clo; t < chi; ++t) counted += w.tasks[t].executed;
  }
  // Counter executes exactly one tuple per URL; the final window may still
  // be in flight.
  EXPECT_NEAR(static_cast<double>(counted), static_cast<double>(spout_emits),
              static_cast<double>(spout_emits) * 0.02);
}

TEST(UrlCount, PartialCounterEmitsPerWindow) {
  PartialUrlCounter counter;
  struct FakeCollector : dsps::OutputCollector {
    void emit(dsps::Values values, const std::string&) override {
      emitted.push_back(std::move(values));
    }
    sim::SimTime now() const override { return 0.0; }
    std::size_t task_index() const override { return 0; }
    std::size_t peer_count() const override { return 1; }
    std::vector<dsps::Values> emitted;
  } collector;

  dsps::Tuple t;
  t.values = {std::string("url-a")};
  counter.execute(t, collector);
  counter.execute(t, collector);
  t.values = {std::string("url-b")};
  counter.execute(t, collector);
  EXPECT_TRUE(collector.emitted.empty());  // nothing until the window closes

  counter.on_window(1.0, collector);
  ASSERT_EQ(collector.emitted.size(), 2u);
  std::int64_t total = 0;
  for (const auto& v : collector.emitted) total += std::get<std::int64_t>(v[1]);
  EXPECT_EQ(total, 3);

  // Window state reset: next window emits nothing without new input.
  collector.emitted.clear();
  counter.on_window(2.0, collector);
  EXPECT_TRUE(collector.emitted.empty());
}

TEST(UrlCount, AggregatorTracksTopUrl) {
  UrlAggregator agg;
  struct NullCollector : dsps::OutputCollector {
    void emit(dsps::Values, const std::string&) override {}
    sim::SimTime now() const override { return 0.0; }
    std::size_t task_index() const override { return 0; }
    std::size_t peer_count() const override { return 1; }
  } collector;

  dsps::Tuple t;
  t.values = {std::string("hot"), std::int64_t{50}};
  agg.execute(t, collector);
  t.values = {std::string("cold"), std::int64_t{3}};
  agg.execute(t, collector);
  agg.on_window(1.0, collector);
  EXPECT_EQ(agg.top_url(), "hot");
  EXPECT_EQ(agg.top_count(), 50);
  EXPECT_EQ(agg.grand_total(), 53);
}

TEST(UrlCount, ZeroWeightCounterReceivesNothing) {
  UrlCountOptions opt;
  opt.spout.rate.base_rate = 300;
  opt.spout.rate.amplitude = 0;
  BuiltApp app = build_url_count(opt);
  dsps::Engine engine(app.topology, small_cluster());
  app.ratio->set_ratios({1.0, 1.0, 1.0, 0.0});
  engine.run_for(5.0);
  auto [clo, chi] = engine.tasks_of("counter");
  std::uint64_t received_last = 0;
  for (const auto& w : engine.window_history().samples()) {
    received_last += w.tasks[chi - 1].received;
  }
  EXPECT_EQ(received_last, 0u);
}

}  // namespace
}  // namespace repro::apps

#include "apps/continuous_query.hpp"

#include <gtest/gtest.h>

#include "dsps/engine.hpp"

namespace repro::apps {
namespace {

struct CaptureCollector : dsps::OutputCollector {
  void emit(dsps::Values values, const std::string&) override {
    emitted.push_back(std::move(values));
  }
  sim::SimTime now() const override { return 0.0; }
  std::size_t task_index() const override { return 0; }
  std::size_t peer_count() const override { return 1; }
  std::vector<dsps::Values> emitted;
};

dsps::Tuple reading(std::int64_t sensor, double value) {
  dsps::Tuple t;
  t.values = {sensor, value};
  return t;
}

TEST(MakeQueries, DeterministicAndWellFormed) {
  auto a = make_queries(20, 50, 7);
  auto b = make_queries(20, 50, 7);
  ASSERT_EQ(a.size(), 20u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].sensor_lo, b[i].sensor_lo);
    EXPECT_LE(a[i].sensor_lo, a[i].sensor_hi);
    EXPECT_LE(a[i].value_lo, a[i].value_hi);
  }
}

TEST(QueryBolt, MatchesOnlyInRange) {
  std::vector<RangeQuery> queries = {{0, 0, 5, 10.0, 20.0}};
  QueryBolt bolt(queries);
  CaptureCollector out;
  bolt.execute(reading(3, 15.0), out);   // match
  bolt.execute(reading(3, 25.0), out);   // value out of range
  bolt.execute(reading(9, 15.0), out);   // sensor out of range
  bolt.on_window(1.0, out);
  ASSERT_EQ(out.emitted.size(), 1u);
  EXPECT_EQ(std::get<std::int64_t>(out.emitted[0][0]), 0);  // query id
  EXPECT_EQ(std::get<std::int64_t>(out.emitted[0][1]), 1);  // count
}

TEST(QueryBolt, AggregatesCorrectly) {
  std::vector<RangeQuery> queries = {{7, 0, 10, 0.0, 100.0}};
  QueryBolt bolt(queries);
  CaptureCollector out;
  bolt.execute(reading(1, 10.0), out);
  bolt.execute(reading(2, 30.0), out);
  bolt.execute(reading(3, 20.0), out);
  bolt.on_window(1.0, out);
  ASSERT_EQ(out.emitted.size(), 1u);
  const auto& v = out.emitted[0];
  EXPECT_EQ(std::get<std::int64_t>(v[1]), 3);
  EXPECT_DOUBLE_EQ(std::get<double>(v[2]), 60.0);   // sum
  EXPECT_DOUBLE_EQ(std::get<double>(v[3]), 10.0);   // min
  EXPECT_DOUBLE_EQ(std::get<double>(v[4]), 30.0);   // max
}

TEST(QueryBolt, WindowResets) {
  std::vector<RangeQuery> queries = {{0, 0, 10, 0.0, 100.0}};
  QueryBolt bolt(queries);
  CaptureCollector out;
  bolt.execute(reading(1, 5.0), out);
  bolt.on_window(1.0, out);
  out.emitted.clear();
  bolt.on_window(2.0, out);
  EXPECT_TRUE(out.emitted.empty());
}

TEST(QueryBolt, CostScalesWithQueryCount) {
  QueryBolt few(make_queries(4, 10, 1));
  QueryBolt many(make_queries(64, 10, 1));
  EXPECT_LT(few.tuple_cost(reading(0, 0.0)), many.tuple_cost(reading(0, 0.0)));
}

TEST(QueryResultsBolt, MergesPartials) {
  QueryResultsBolt results;
  CaptureCollector out;
  dsps::Tuple p1, p2;
  p1.values = {std::int64_t{5}, std::int64_t{2}, 30.0, 10.0, 20.0};
  p2.values = {std::int64_t{5}, std::int64_t{3}, 90.0, 5.0, 50.0};
  results.execute(p1, out);
  results.execute(p2, out);
  results.on_window(1.0, out);
  EXPECT_EQ(results.results_emitted(), 1);
}

TEST(ContinuousQuery, BuildsTopology) {
  ContinuousQueryOptions opt;
  BuiltApp app = build_continuous_query(opt);
  EXPECT_TRUE(app.topology.has_component("sensors"));
  EXPECT_TRUE(app.topology.has_component("query"));
  EXPECT_TRUE(app.topology.has_component("results"));
  ASSERT_NE(app.ratio, nullptr);
  EXPECT_EQ(app.ratio->size(), opt.query_parallelism);
}

TEST(ContinuousQuery, RunsEndToEnd) {
  ContinuousQueryOptions opt;
  opt.spout.rate.base_rate = 400;
  opt.spout.rate.amplitude = 0;
  BuiltApp app = build_continuous_query(opt);
  dsps::ClusterConfig cluster;
  cluster.machines = 2;
  cluster.cores_per_machine = 4;
  cluster.workers_per_machine = 2;
  cluster.seed = 5;
  dsps::Engine engine(app.topology, cluster);
  engine.run_for(10.0);
  EXPECT_GT(engine.totals().roots_emitted, 3000u);
  EXPECT_EQ(engine.totals().failed, 0u);
  // Results flow to the results bolt.
  auto [rlo, rhi] = engine.tasks_of("results");
  std::uint64_t received = 0;
  for (const auto& w : engine.window_history().samples()) {
    for (std::size_t t = rlo; t < rhi; ++t) received += w.tasks[t].received;
  }
  EXPECT_GT(received, 0u);
}

TEST(ContinuousQuery, SplitInvariantResults) {
  // The per-window result count at the results stage must be unaffected by
  // the split ratio (partials merge by query id regardless of routing).
  auto run = [](std::vector<double> ratios) {
    ContinuousQueryOptions opt;
    opt.spout.rate.base_rate = 400;
    opt.spout.rate.amplitude = 0;
    opt.spout.seed = 9;
    opt.seed = 9;
    BuiltApp app = build_continuous_query(opt);
    dsps::ClusterConfig cluster;
    cluster.machines = 2;
    cluster.cores_per_machine = 4;
    cluster.workers_per_machine = 2;
    cluster.seed = 9;
    dsps::Engine engine(app.topology, cluster);
    if (!ratios.empty()) app.ratio->set_ratios(ratios);
    engine.run_for(8.0);
    // Count query partial emissions merged per window (received at results).
    auto [rlo, rhi] = engine.tasks_of("results");
    std::uint64_t total = 0;
    for (const auto& w : engine.window_history().samples()) {
      for (std::size_t t = rlo; t < rhi; ++t) total += w.tasks[t].executed;
    }
    return total;
  };
  std::uint64_t uniform = run({});
  std::uint64_t skewed = run({0.7, 0.3, 0.0, 0.0});
  // Skewed routing produces *fewer or equal* partial tuples (fewer active
  // tasks -> fewer per-task partial emissions), but both must be nonzero
  // and the same order of magnitude.
  EXPECT_GT(uniform, 0u);
  EXPECT_GT(skewed, 0u);
  EXPECT_LE(skewed, uniform);
}

}  // namespace
}  // namespace repro::apps

// Controller integration: wire a controller with a scripted predictor into
// a small engine and verify the detect -> plan -> actuate loop.
#include "control/controller.hpp"

#include "dsps/engine.hpp"

#include <gtest/gtest.h>

namespace repro::control {
namespace {

class SeqSpout : public dsps::Spout {
 public:
  double next_delay(sim::SimTime) override { return 1.0 / 400.0; }
  std::optional<dsps::Values> next(sim::SimTime) override {
    return dsps::Values{static_cast<std::int64_t>(n_++)};
  }

 private:
  std::int64_t n_ = 0;
};

class SinkBolt : public dsps::Bolt {
 public:
  void execute(const dsps::Tuple&, dsps::OutputCollector&) override {}
  double tuple_cost(const dsps::Tuple&) const override { return 50e-6; }
};

/// Scripted predictor: reports a fixed slowdown profile for one worker.
class ScriptedPredictor : public PerformancePredictor {
 public:
  ScriptedPredictor(std::size_t bad_worker, double after) : bad_(bad_worker), after_(after) {}
  void fit(const std::vector<dsps::WindowSample>&, const std::vector<std::size_t>&) override {}
  double predict_next(std::size_t worker) override {
    double t = recent_samples().back().time;
    if (worker == bad_ && t >= after_) return 0.01;  // 10x the healthy level
    return 0.001;
  }
  std::size_t min_history() const override { return 1; }
  std::string name() const override { return "scripted"; }

 private:
  std::size_t bad_;
  double after_;
};

struct ControllerFixture : ::testing::Test {
  ControllerFixture() {
    dsps::TopologyBuilder b("ctl");
    b.set_spout("src", [] { return std::make_unique<SeqSpout>(); });
    ratio = b.set_bolt("work", [] { return std::make_unique<SinkBolt>(); }, 4)
                .dynamic_grouping("src");
    topo = b.build();
    cluster.machines = 2;
    cluster.cores_per_machine = 2;
    cluster.workers_per_machine = 2;
    cluster.seed = 3;
  }
  dsps::Topology topo;
  std::shared_ptr<dsps::DynamicRatio> ratio;
  dsps::ClusterConfig cluster;
};

TEST_F(ControllerFixture, BypassesFlaggedWorker) {
  dsps::Engine engine(topo, cluster);
  std::size_t victim_task_worker = engine.worker_of_task(engine.tasks_of("work").first);

  ControllerConfig cfg;
  cfg.control_interval = 1.0;
  cfg.detector.consecutive = 1;
  cfg.planner.smoothing = 0.0;
  cfg.planner.bypass_weight = 0.0;  // full bypass (no probe trickle)
  auto predictor = std::make_shared<ScriptedPredictor>(victim_task_worker, 5.0);
  PredictiveController controller(cfg, predictor);
  controller.attach(engine);

  engine.run_for(10.0);

  // After t=5 the victim's task weight must be 0.
  const auto& weights = ratio->weights();
  auto [lo, hi] = engine.tasks_of("work");
  for (std::size_t t = lo; t < hi; ++t) {
    if (engine.worker_of_task(t) == victim_task_worker) {
      EXPECT_DOUBLE_EQ(weights[t - lo], 0.0);
    } else {
      EXPECT_GT(weights[t - lo], 0.0);
    }
  }
  // Actions were recorded and at least one flagged the victim.
  bool flagged = false;
  for (const auto& a : controller.actions()) {
    for (bool f : a.misbehaving) flagged |= f;
  }
  EXPECT_TRUE(flagged);
}

TEST_F(ControllerFixture, NoActionWhenHealthy) {
  dsps::Engine engine(topo, cluster);
  ControllerConfig cfg;
  cfg.control_interval = 1.0;
  auto predictor = std::make_shared<ScriptedPredictor>(999, 1e9);  // never misbehaves
  PredictiveController controller(cfg, predictor);
  controller.attach(engine);
  engine.run_for(8.0);
  for (const auto& a : controller.actions()) {
    for (bool f : a.misbehaving) EXPECT_FALSE(f);
  }
  // Ratios stay (near) uniform.
  for (double w : ratio->weights()) EXPECT_NEAR(w, 0.25, 0.05);
}

TEST_F(ControllerFixture, NullPredictorThrows) {
  EXPECT_THROW(PredictiveController(ControllerConfig{}, nullptr), std::invalid_argument);
}

/// Bolt forwarding every tuple downstream (to chain dynamic edges).
class ForwardBolt : public dsps::Bolt {
 public:
  void execute(const dsps::Tuple& t, dsps::OutputCollector& out) override {
    out.emit(t.values);
  }
  double tuple_cost(const dsps::Tuple&) const override { return 30e-6; }
};

/// A two-stage pipeline with *two* dynamic-grouping edges:
/// src -> stage1 -> stage2.
struct TwoEdgePipeline {
  dsps::Topology topo;
  std::shared_ptr<dsps::DynamicRatio> ratio1;
  std::shared_ptr<dsps::DynamicRatio> ratio2;
  dsps::ClusterConfig cluster;
};

TwoEdgePipeline two_edge_pipeline() {
  TwoEdgePipeline p;
  dsps::TopologyBuilder b("two-edges");
  b.set_spout("src", [] { return std::make_unique<SeqSpout>(); });
  p.ratio1 = b.set_bolt("stage1", [] { return std::make_unique<ForwardBolt>(); }, 4)
                 .dynamic_grouping("src");
  p.ratio2 = b.set_bolt("stage2", [] { return std::make_unique<SinkBolt>(); }, 4)
                 .dynamic_grouping("stage1");
  p.topo = b.build();
  p.cluster.machines = 2;
  p.cluster.cores_per_machine = 2;
  p.cluster.workers_per_machine = 2;
  p.cluster.seed = 5;
  return p;
}

/// src -> work over a shuffle grouping: no dynamic edge at all.
dsps::Topology static_topology() {
  dsps::TopologyBuilder b("static");
  b.set_spout("src", [] { return std::make_unique<SeqSpout>(); });
  b.set_bolt("work", [] { return std::make_unique<SinkBolt>(); }, 2).shuffle_grouping("src");
  return b.build();
}

// Acceptance scenario for the topology-wide controller: one controller
// attached to the two-edge pipeline, one worker degrading. The
// controller must discover both edges and steer both independently.
TEST(TopologyController, OneControllerDrivesEveryDynamicEdge) {
  TwoEdgePipeline p = two_edge_pipeline();
  dsps::Engine engine(p.topo, p.cluster);

  std::size_t victim = engine.worker_of_task(engine.tasks_of("stage1").first);
  ControllerConfig cfg;
  cfg.control_interval = 1.0;
  cfg.detector.consecutive = 1;
  cfg.planner.smoothing = 0.0;
  cfg.planner.bypass_weight = 0.0;
  PredictiveController controller(cfg, std::make_shared<ScriptedPredictor>(victim, 5.0));
  controller.attach(engine);  // topology-wide: no edge named explicitly
  EXPECT_EQ(controller.edge_count(), 2u);

  engine.run_for(10.0);

  // Both edges produced actions, tagged with their endpoints.
  bool saw1 = false, saw2 = false;
  for (const auto& a : controller.actions()) {
    if (a.from == "src" && a.to == "stage1") saw1 = true;
    if (a.from == "stage1" && a.to == "stage2") saw2 = true;
    EXPECT_GE(a.round_seconds, 0.0);
  }
  EXPECT_TRUE(saw1);
  EXPECT_TRUE(saw2);

  // Every task of either stage hosted on the victim worker is bypassed.
  auto check_edge = [&](const char* bolt, const std::shared_ptr<dsps::DynamicRatio>& ratio) {
    auto [lo, hi] = engine.tasks_of(bolt);
    const auto& weights = ratio->weights();
    for (std::size_t t = lo; t < hi; ++t) {
      if (engine.worker_of_task(t) == victim) {
        EXPECT_DOUBLE_EQ(weights[t - lo], 0.0) << bolt;
      } else {
        EXPECT_GT(weights[t - lo], 0.0) << bolt;
      }
    }
  };
  check_edge("stage1", p.ratio1);
  check_edge("stage2", p.ratio2);
}

TEST(TopologyController, AttachThrowsWithoutDynamicEdges) {
  dsps::ClusterConfig cluster;
  cluster.machines = 1;
  dsps::Engine engine(static_topology(), cluster);
  PredictiveController controller(ControllerConfig{},
                                  std::make_shared<ScriptedPredictor>(0, 1e9));
  EXPECT_THROW(controller.attach(engine), std::invalid_argument);
}

TEST_F(ControllerFixture, RoundLatencyIsStamped) {
  dsps::Engine engine(topo, cluster);
  ControllerConfig cfg;
  cfg.control_interval = 1.0;
  PredictiveController controller(cfg, std::make_shared<ScriptedPredictor>(999, 1e9));
  controller.attach(engine);
  engine.run_for(5.0);
  ASSERT_FALSE(controller.actions().empty());
  for (const auto& a : controller.actions()) {
    EXPECT_GT(a.round_seconds, 0.0);
    EXPECT_LT(a.round_seconds, 10.0);  // sanity: wall clock, not sim time
    EXPECT_EQ(a.from, "src");
    EXPECT_EQ(a.to, "work");
  }
}

TEST_F(ControllerFixture, OracleBypassesInjectedSlowdown) {
  dsps::Engine engine(topo, cluster);
  OracleController oracle({}, 1.0);
  oracle.attach(engine);
  std::size_t victim = engine.workers_of("work")[0];
  engine.set_worker_slowdown(victim, 8.0);
  engine.run_for(5.0);
  auto [lo, hi] = engine.tasks_of("work");
  const auto& weights = ratio->weights();
  for (std::size_t t = lo; t < hi; ++t) {
    if (engine.worker_of_task(t) == victim) {
      EXPECT_LT(weights[t - lo], 0.05);
    }
  }
}

/// The oracle controls exactly one edge: attach fails closed on a
/// topology with none or with two, naming the count it found.
std::string oracle_attach_error(runtime::ControlSurface& surface) {
  OracleController oracle;
  try {
    oracle.attach(surface);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(OracleController, AttachThrowsWithoutDynamicEdge) {
  dsps::ClusterConfig cluster;
  cluster.machines = 1;
  dsps::Engine engine(static_topology(), cluster);
  std::string error = oracle_attach_error(engine);
  EXPECT_NE(error.find("has 0"), std::string::npos) << error;
}

TEST(OracleController, AttachThrowsOnTwoDynamicEdges) {
  TwoEdgePipeline p = two_edge_pipeline();
  dsps::Engine engine(p.topo, p.cluster);
  std::string error = oracle_attach_error(engine);
  EXPECT_NE(error.find("has 2"), std::string::npos) << error;
}

}  // namespace
}  // namespace repro::control

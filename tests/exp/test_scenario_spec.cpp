// Fail-closed coverage for the declarative scenario registry: every
// invalid spec field is rejected with a diagnostic naming the field, the
// registry round-trips (list -> get -> run) for every built-in scenario,
// self-registration works from any TU, and the spec-derived pieces
// (merged multi-tenant app, heterogeneous cluster, chaos shapes,
// interference plans) behave deterministically.
#include "exp/scenario_spec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "exp/chaos.hpp"

namespace repro::exp {
namespace {

/// Run `fn`, expect std::invalid_argument whose message contains
/// `needle` — the field-naming contract of the fail-closed validators.
template <typename Fn>
void expect_invalid(Fn&& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected std::invalid_argument mentioning \"" << needle << "\"";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "diagnostic \"" << e.what() << "\" does not name \"" << needle << "\"";
  }
}

ScenarioSpec valid_spec() {
  ScenarioSpec spec;
  spec.name = "unit-spec";
  spec.description = "unit test spec";
  spec.duration = 10.0;
  return spec;
}

TEST(ScenarioSpecValidate, AcceptsDefaults) {
  EXPECT_NO_THROW(valid_spec().validate());
}

TEST(ScenarioSpecValidate, RejectsBadName) {
  ScenarioSpec s = valid_spec();
  s.name = "Bad_Name!";
  expect_invalid([&] { s.validate(); }, "name");
  s.name = "";
  expect_invalid([&] { s.validate(); }, "name");
}

TEST(ScenarioSpecValidate, RejectsZeroMachines) {
  ScenarioSpec s = valid_spec();
  s.machines = 0;
  expect_invalid([&] { s.validate(); }, "machines");
}

TEST(ScenarioSpecValidate, RejectsNonPositiveCores) {
  ScenarioSpec s = valid_spec();
  s.cores_per_machine = 0.0;
  expect_invalid([&] { s.validate(); }, "cores_per_machine");
}

TEST(ScenarioSpecValidate, RejectsWrongSizedMachineCores) {
  ScenarioSpec s = valid_spec();
  s.machines = 3;
  s.machine_cores = {4.0, 2.0};  // 2 entries for 3 machines
  expect_invalid([&] { s.validate(); }, "machine_cores");
  s.machine_cores = {4.0, 2.0, 0.0};  // non-positive entry
  expect_invalid([&] { s.validate(); }, "machine_cores");
}

TEST(ScenarioSpecValidate, RejectsZeroWorkersAndWindow) {
  ScenarioSpec s = valid_spec();
  s.workers_per_machine = 0;
  expect_invalid([&] { s.validate(); }, "workers_per_machine");
  s = valid_spec();
  s.window_seconds = 0.0;
  expect_invalid([&] { s.validate(); }, "window_seconds");
}

TEST(ScenarioSpecValidate, RejectsReplayWithoutBudget) {
  ScenarioSpec s = valid_spec();
  s.replay_on_failure = true;
  s.max_replays = 0;
  expect_invalid([&] { s.validate(); }, "max_replays");
}

TEST(ScenarioSpecValidate, RejectsBatchLargerThanBlockCap) {
  ScenarioSpec s = valid_spec();
  s.flow.queue_capacity = 16;
  s.flow.policy = runtime::OverflowPolicy::kBlockUpstream;
  s.batch_size = 32;  // batches park whole: must fit the cap
  expect_invalid([&] { s.validate(); }, "batch_size");
}

TEST(ScenarioSpecValidate, RejectsEmptyAndDuplicateTopologies) {
  ScenarioSpec s = valid_spec();
  s.topologies.clear();
  expect_invalid([&] { s.validate(); }, "topologies");

  s = valid_spec();
  s.topologies.resize(2);
  s.topologies[0].name = "same";
  s.topologies[1].name = "same";
  expect_invalid([&] { s.validate(); }, "topologies[1].name");
}

TEST(ScenarioSpecValidate, RejectsNegativeRate) {
  ScenarioSpec s = valid_spec();
  s.topologies[0].base_rate = -100.0;
  expect_invalid([&] { s.validate(); }, "base_rate");
  s = valid_spec();
  s.topologies[0].base_rate = 0.0;
  expect_invalid([&] { s.validate(); }, "base_rate");
}

TEST(ScenarioSpecValidate, RejectsUnorderedOrBadPhases) {
  ScenarioSpec s = valid_spec();
  s.topologies[0].phases = {{40.0, 2.0, 5.0}, {20.0, 1.0, 0.0}};  // descending
  expect_invalid([&] { s.validate(); }, "phases[1].at");
  s = valid_spec();
  s.topologies[0].phases = {{40.0, 0.0, 5.0}};  // zero factor
  expect_invalid([&] { s.validate(); }, "phases[0].factor");
}

TEST(ScenarioSpecValidate, RejectsBadInterference) {
  ScenarioSpec s = valid_spec();
  s.interference.hog_intensity = -1.0;
  expect_invalid([&] { s.validate(); }, "interference.hog_intensity");
  s = valid_spec();
  s.interference.ramp_magnitude = 0.5;  // a "slowdown" below 1x
  expect_invalid([&] { s.validate(); }, "interference.ramp_magnitude");
}

TEST(ScenarioSpecValidate, RejectsUnknownFaultKind) {
  ScenarioSpec s = valid_spec();
  s.faults.push_back({"explode", 10.0, 0, 0.0, 0.0});
  expect_invalid([&] { s.validate(); }, "faults[0].kind");
}

TEST(ScenarioSpecValidate, RejectsOutOfRangeFaultTarget) {
  ScenarioSpec s = valid_spec();  // 3 machines x 2 workers = workers 0..5
  s.faults.push_back({"crash", 10.0, 99, 0.0, 0.0});
  expect_invalid([&] { s.validate(); }, "faults[0].target");
  s = valid_spec();
  s.faults = {{"hog", 10.0, 7, 1.0, 0.0}};  // machine out of range
  expect_invalid([&] { s.validate(); }, "faults[0]");
}

TEST(ScenarioSpecValidate, RejectsBadFaultValues) {
  ScenarioSpec s = valid_spec();
  s.faults = {{"slowdown", 10.0, 1, 0.5, 0.0}};  // factor < 1
  expect_invalid([&] { s.validate(); }, "faults[0]");
  s = valid_spec();
  s.faults = {{"drop", 10.0, 1, 1.5, 0.0}};  // probability > 1
  expect_invalid([&] { s.validate(); }, "faults[0]");
}

TEST(ScenarioSpecValidate, RejectsUnknownController) {
  ScenarioSpec s = valid_spec();
  s.controller = "pid";
  expect_invalid([&] { s.validate(); }, "controller");
  // The diagnostic teaches the full vocabulary, including the new arms.
  s.controller = "bogus";
  try {
    s.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    for (const char* name : {"none", "drnn", "observed", "elastic", "drl", "rate"}) {
      EXPECT_NE(what.find(name), std::string::npos)
          << "diagnostic should list \"" << name << "\": " << what;
    }
  }
}

TEST(ScenarioSpecValidate, AcceptsTheNewControllerArms) {
  ScenarioSpec s = valid_spec();
  s.controller = "drl";
  EXPECT_NO_THROW(s.validate());
  s.controller = "rate";
  EXPECT_NO_THROW(s.validate());
}

TEST(ScenarioSpecValidate, DrlControllerNeedsTrainingEpisodes) {
  ScenarioSpec s = valid_spec();
  s.controller = "drl";
  s.drl_episodes = 0;
  expect_invalid([&] { s.validate(); }, "drl_episodes");
  // Harmless on non-learning arms: the field is ignored there.
  s.controller = "rate";
  EXPECT_NO_THROW(s.validate());
}

TEST(ScenarioSpecValidate, RejectsNonPositiveDuration) {
  ScenarioSpec s = valid_spec();
  s.duration = 0.0;
  expect_invalid([&] { s.validate(); }, "duration");
  s = valid_spec();
  s.controller = "drnn";
  s.train_duration = 0.0;
  expect_invalid([&] { s.validate(); }, "train_duration");
}

TEST(ScenarioOverride, UnknownKeyFailsClosed) {
  ScenarioSpec s = valid_spec();
  expect_invalid([&] { apply_override(s, "warp-factor", "9"); }, "warp-factor");
}

TEST(ScenarioOverride, GarbageValuesFailClosed) {
  ScenarioSpec s = valid_spec();
  expect_invalid([&] { apply_override(s, "duration", "12x"); }, "duration");
  expect_invalid([&] { apply_override(s, "machines", "-3"); }, "machines");
  expect_invalid([&] { apply_override(s, "backend", "gpu"); }, "backend");
  expect_invalid([&] { apply_override(s, "app", "word-count"); }, "word-count");
  expect_invalid([&] { apply_override(s, "controller", "pid"); }, "controller");
  expect_invalid([&] { apply_override(s, "drl-episodes", "two"); }, "drl-episodes");
}

TEST(ScenarioOverride, KnownKeysRoundTrip) {
  ScenarioSpec s = valid_spec();
  apply_override(s, "backend", "async");
  apply_override(s, "seed", "99");
  apply_override(s, "duration", "30");
  apply_override(s, "controller", "observed");
  apply_override(s, "drl-episodes", "5");
  apply_override(s, "machines", "4");
  apply_override(s, "workers", "3");
  apply_override(s, "queue-cap", "128");
  apply_override(s, "overflow-policy", "block");
  apply_override(s, "batch-size", "8");
  apply_override(s, "rate", "1234.5");
  EXPECT_EQ(s.backend, runtime::BackendKind::kAsync);
  EXPECT_EQ(s.seed, 99u);
  EXPECT_DOUBLE_EQ(s.duration, 30.0);
  EXPECT_EQ(s.controller, "observed");
  EXPECT_EQ(s.drl_episodes, 5u);
  EXPECT_EQ(s.machines, 4u);
  EXPECT_EQ(s.workers_per_machine, 3u);
  EXPECT_EQ(s.flow.queue_capacity, 128u);
  EXPECT_EQ(s.flow.policy, runtime::OverflowPolicy::kBlockUpstream);
  EXPECT_EQ(s.batch_size, 8u);
  EXPECT_DOUBLE_EQ(s.topologies[0].base_rate, 1234.5);
  EXPECT_NO_THROW(s.validate());
  // Every advertised key really is handled (the closed set is honest).
  for (const std::string& key : override_keys()) {
    SCOPED_TRACE(key);
    ScenarioSpec probe = valid_spec();
    try {
      apply_override(probe, key, "1");
    } catch (const std::invalid_argument& e) {
      // A value-format rejection is fine; "unknown key" would mean the
      // advertised set and the dispatcher disagree.
      EXPECT_EQ(std::string(e.what()).find("unknown scenario override key"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ScenarioRegistryTest, LookupFailsClosedAndListsNames) {
  ScenarioRegistry& reg = ScenarioRegistry::instance();
  expect_invalid([&] { reg.get("no-such-scenario"); }, "no-such-scenario");
  // The diagnostic lists what IS registered.
  try {
    reg.get("no-such-scenario");
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("flash-crowd"), std::string::npos) << e.what();
  }
}

TEST(ScenarioRegistryTest, DuplicateNameRejected) {
  ScenarioSpec dup = ScenarioRegistry::instance().get("flash-crowd");
  expect_invalid([&] { ScenarioRegistry::instance().register_scenario(dup); },
                 "duplicate scenario name");
}

TEST(ScenarioRegistryTest, InvalidSpecRejectedAtRegistration) {
  ScenarioSpec bad = valid_spec();
  bad.name = "unit-bad-spec";
  bad.machines = 0;
  expect_invalid([&] { ScenarioRegistry::instance().register_scenario(bad); }, "machines");
  EXPECT_FALSE(ScenarioRegistry::instance().contains("unit-bad-spec"));
}

TEST(ScenarioRegistryTest, BuiltinCatalogRegistered) {
  ScenarioRegistry& reg = ScenarioRegistry::instance();
  for (const char* name : {"flash-crowd", "cascading-crash", "hetero-machines", "diurnal-cq",
                           "multi-tenant", "bounded-overload-replay", "t3-reliability",
                           "t4-crash", "t5-overload"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
    EXPECT_FALSE(reg.get(name).description.empty()) << name;
  }
  // names() is sorted and covers everything contains() says is there.
  std::vector<std::string> names = reg.names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_GE(names.size(), 9u);
}

// Self-registration from an arbitrary TU: this test binary's own spec
// must be visible through the process-wide registry.
ScenarioSpec unit_registered_spec() {
  ScenarioSpec spec = valid_spec();
  spec.name = "unit-self-registered";
  spec.description = "registered by test_scenario_spec via the macro";
  return spec;
}
REPRO_REGISTER_SCENARIO(unit_registered_spec)

TEST(ScenarioRegistryTest, MacroSelfRegistration) {
  const ScenarioSpec& spec = ScenarioRegistry::instance().get("unit-self-registered");
  EXPECT_DOUBLE_EQ(spec.duration, 10.0);
}

TEST(ScenarioRegistryTest, RoundTripRunsEveryScenarioOnSim) {
  // list -> get -> run, ~2 sim-seconds each, controller forced off so the
  // smoke stays fast. Exercises validation, app building, fault-plan
  // construction and the sim backend for the whole catalog.
  for (const std::string& name : ScenarioRegistry::instance().names()) {
    SCOPED_TRACE(name);
    ScenarioSpec spec = ScenarioRegistry::instance().get(name);
    apply_override(spec, "backend", "sim");
    apply_override(spec, "controller", "none");
    apply_override(spec, "duration", "2");
    spec.validate();
    ScenarioRunResult result = run_scenario(spec);
    EXPECT_EQ(result.backend, runtime::BackendKind::kSim);
    EXPECT_EQ(result.history.size(), 2u);
    EXPECT_GT(result.totals.acked, 0u);
    EXPECT_TRUE(result.skipped_faults.empty());  // sim applies every kind
    std::string table = render_scenario_table(spec, result);
    EXPECT_NE(table.find("scenario " + name), std::string::npos);
  }
}

TEST(ScenarioRegistryTest, AsyncReportsReplayAsSkipped) {
  // The async backend has no timeout replay: a spec that asks for it must
  // say so in the result instead of silently running without.
  ScenarioSpec spec = ScenarioRegistry::instance().get("t4-crash");
  apply_override(spec, "backend", "async");
  apply_override(spec, "controller", "none");
  apply_override(spec, "duration", "1");
  ASSERT_TRUE(spec.replay_on_failure);
  spec.validate();
  auto lists_replay = [](const ScenarioRunResult& r) {
    return std::find(r.skipped_faults.begin(), r.skipped_faults.end(), "replay") !=
           r.skipped_faults.end();
  };
  EXPECT_TRUE(lists_replay(run_scenario(spec)));

  apply_override(spec, "replay", "false");
  spec.validate();
  EXPECT_FALSE(lists_replay(run_scenario(spec)));
}

TEST(ScenarioApps, MultiTenantPartsMergeDisjoint) {
  ScenarioSpec spec = ScenarioRegistry::instance().get("multi-tenant");
  ASSERT_EQ(spec.topologies.size(), 2u);
  ScenarioApp app = build_scenario_app(spec);
  ASSERT_EQ(app.parts.size(), 2u);
  // Every part handle is prefixed with its topology name and resolves in
  // the merged graph.
  for (std::size_t i = 0; i < app.parts.size(); ++i) {
    const std::string prefix = spec.topologies[i].name + ".";
    EXPECT_EQ(app.parts[i].spout_name.rfind(prefix, 0), 0u) << app.parts[i].spout_name;
    EXPECT_TRUE(app.topology.has_component(app.parts[i].spout_name));
    EXPECT_TRUE(app.topology.has_component(app.parts[i].control_bolt));
  }
  EXPECT_NE(app.parts[0].spout_name, app.parts[1].spout_name);
  // The merged graph holds both parts' components and nothing unprefixed.
  for (const auto& s : app.topology.spouts) {
    EXPECT_NE(s.name.find('.'), std::string::npos) << s.name;
  }
  // A single-topology spec keeps the historical unprefixed names.
  ScenarioSpec single = ScenarioRegistry::instance().get("flash-crowd");
  ScenarioApp one = build_scenario_app(single);
  ASSERT_EQ(one.parts.size(), 1u);
  EXPECT_EQ(one.parts[0].spout_name.find('.'), std::string::npos);
}

TEST(ScenarioApps, HeterogeneousMachineCoresReachTheEngine) {
  ScenarioSpec spec = ScenarioRegistry::instance().get("hetero-machines");
  ASSERT_EQ(spec.machine_cores.size(), spec.machines);
  ScenarioApp app = build_scenario_app(spec);
  dsps::Engine engine(app.topology, spec.cluster_config());
  ASSERT_EQ(engine.machine_count(), spec.machines);
  for (std::size_t m = 0; m < spec.machines; ++m) {
    EXPECT_DOUBLE_EQ(engine.machine(m).cores(), spec.machine_cores[m]);
  }
  // The engine itself validates the override fail-closed.
  dsps::ClusterConfig bad = spec.cluster_config();
  bad.machine_cores = {4.0};  // wrong size
  EXPECT_THROW(dsps::Engine(app.topology, bad), std::invalid_argument);
}

TEST(ScenarioApps, InterferencePlanIsPureAndDeterministic) {
  InterferenceSpec noise;
  noise.hog_intensity = 1.5;
  noise.ramp_rate = 4.0;
  dsps::FaultPlan a = make_interference_plan(noise, 42, 3, 6, 0.0, 60.0);
  dsps::FaultPlan b = make_interference_plan(noise, 42, 3, 6, 0.0, 60.0);
  dsps::FaultPlan c = make_interference_plan(noise, 43, 3, 6, 0.0, 60.0);
  EXPECT_FALSE(a.events.empty());
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.events[i].at, b.events[i].at);
  }
  EXPECT_NE(a.events.size(), c.events.size());
}

TEST(ScenarioApps, SimRunsAreByteIdentical) {
  ScenarioSpec spec = ScenarioRegistry::instance().get("flash-crowd");
  apply_override(spec, "duration", "20");
  ScenarioRunResult a = run_scenario(spec);
  ScenarioRunResult b = run_scenario(spec);
  EXPECT_EQ(render_scenario_table(spec, a), render_scenario_table(spec, b));
  EXPECT_EQ(a.totals.acked, b.totals.acked);
  EXPECT_EQ(a.totals.failed, b.totals.failed);
}

TEST(ScenarioChaos, FromScenarioForcesShapeAndDataPath) {
  ScenarioSpec scenario = ScenarioRegistry::instance().get("bounded-overload-replay");
  ChaosSpec plain = make_chaos_spec(7);
  ChaosSpec shaped = make_chaos_spec(scenario, 7);
  EXPECT_EQ(shaped.machines, scenario.machines);
  EXPECT_EQ(shaped.workers_per_machine, scenario.workers_per_machine);
  EXPECT_EQ(shaped.flow.queue_capacity, scenario.flow.queue_capacity);
  EXPECT_EQ(shaped.flow.policy, scenario.flow.policy);
  EXPECT_EQ(shaped.batch_size, scenario.batch_size);
  // Deterministic in (scenario, seed).
  ChaosSpec again = make_chaos_spec(scenario, 7);
  EXPECT_EQ(shaped.plan.events.size(), again.plan.events.size());
  EXPECT_EQ(shaped.stage_parallelism, again.stage_parallelism);
  // The plain generator is untouched by the new overload: same seed, same
  // scenario-independent draws.
  ChaosSpec plain2 = make_chaos_spec(7);
  EXPECT_EQ(plain.machines, plain2.machines);
  EXPECT_EQ(plain.plan.events.size(), plain2.plan.events.size());
}

TEST(ScenarioChaos, SingleWorkerShapeGetsNoCrashes) {
  ScenarioSpec tiny = valid_spec();
  tiny.machines = 1;
  tiny.workers_per_machine = 1;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    ChaosSpec spec = make_chaos_spec(tiny, seed);
    EXPECT_FALSE(spec.has_crash) << "seed " << seed;
    for (const auto& e : spec.plan.events) {
      EXPECT_NE(e.kind, dsps::FaultKind::kWorkerCrash) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace repro::exp

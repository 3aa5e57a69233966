#pragma once
// Canonical experiment scenarios: cluster setups, interference schedules,
// and trace collection used by the accuracy and reliability experiments.
//
// ScenarioOptions is the historical single-topology configuration; since
// the scenario-registry refactor it is a thin adapter over the
// declarative exp::ScenarioSpec (scenario_spec.hpp) — to_spec() exposes
// the equivalent spec, and make_app/make_scenario/schedule_interference/
// collect_trace all run through the spec machinery.
#include <cstdint>
#include <memory>
#include <vector>

#include "apps/continuous_query.hpp"
#include "apps/url_count.hpp"
#include "dsps/engine.hpp"
#include "exp/scenario_spec.hpp"

namespace repro::exp {

struct ScenarioOptions {
  AppKind app = AppKind::kUrlCount;
  dsps::ClusterConfig cluster{};
  std::uint64_t seed = 42;
  bool use_dynamic_grouping = true;

  /// Interference: per-machine CPU-hog load following a smooth seeded
  /// random walk, updated every hog_update seconds. 0 disables.
  double hog_intensity = 2.4;   ///< peak hog load in core-units
  double hog_update = 1.0;
  /// Occasional worker slowdown ramps mixed into training traces so the
  /// predictor sees misbehaviour examples. 0 disables.
  double ramp_rate = 0.0;       ///< expected ramps per 100 seconds per worker
  double ramp_magnitude = 4.0;

  /// The equivalent declarative spec (single topology, cluster and
  /// interference carried over field by field).
  ScenarioSpec to_spec() const;
};

/// Build just the scenario's application topology — shared by the
/// simulator path (make_scenario) and the async backend, which drives the
/// same BuiltApp on rt::AsyncEngine.
apps::BuiltApp make_app(const ScenarioOptions& options);

/// Build the app + engine for a scenario (caller owns the engine).
struct Scenario {
  apps::BuiltApp app;
  std::unique_ptr<dsps::Engine> engine;
};
Scenario make_scenario(const ScenarioOptions& options);

/// Schedule the scenario's interference (hog walks, optional ramps) onto
/// an engine for [t0, t0 + duration). Wrapper over the pure
/// make_interference_plan (scenario_spec.hpp), kept for callers holding a
/// live sim engine.
void schedule_interference(dsps::Engine& engine, const ScenarioOptions& options, double t0,
                           double duration);

/// Run a scenario for `duration` seconds and return its window history.
std::vector<dsps::WindowSample> collect_trace(const ScenarioOptions& options, double duration);

/// Default experiment cluster: 3 machines x 2 workers, 2 cores each.
dsps::ClusterConfig default_cluster(std::uint64_t seed = 42);

/// Workers that executed at least one tuple over the trace (i.e. host bolt
/// executors) — the entities worth predicting.
std::vector<std::size_t> active_workers(const std::vector<dsps::WindowSample>& trace);

}  // namespace repro::exp

#pragma once
// Declarative scenario registry: one ScenarioSpec describes a full
// experiment run — cluster shape (optionally heterogeneous per-machine
// cores), one or more application topologies sharing the cluster, the
// workload schedule (rate phases: ramps, surges, diurnal curves), the
// interference/fault plan, the data-path configuration, the controller,
// the backend, seed and duration. Specs are validated fail-closed at
// registration (every field range-checked, every string key parsed
// against a closed set) and self-register into the process-wide
// ScenarioRegistry via REPRO_REGISTER_SCENARIO, in the spirit of
// dag-executor's TaskSpec/TaskRegistrar contract model. One registered
// spec drives the `exp_scenario` runner, the chaos harness
// (make_chaos_spec(scenario, seed)), ctest smoke/golden coverage, and all
// two backends (sim / async).
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/url_count.hpp"  // BuiltApp
#include "dsps/cluster.hpp"
#include "dsps/engine.hpp"
#include "dsps/fault.hpp"
#include "rt/async_engine.hpp"
#include "runtime/flow_control.hpp"

namespace repro::control {
class Controller;
}  // namespace repro::control

namespace repro::exp {

enum class AppKind { kUrlCount, kContinuousQuery };

/// Display name of an app. Fail-closed: an out-of-range enum value (e.g.
/// from a bad cast) throws std::invalid_argument instead of returning a
/// placeholder.
const char* app_name(AppKind app);
/// Parse "url-count" | "continuous-query". Throws std::invalid_argument
/// naming the unknown app otherwise.
AppKind parse_app_kind(const std::string& name);

/// One workload phase: from `at` seconds on, the topology's arrival rate
/// is multiplied by `factor`, reached via a linear ramp over
/// `ramp_seconds` (0 = step). Phases compose flash crowds, load sheds and
/// other piecewise schedules on top of the base diurnal profile.
struct RatePhaseSpec {
  double at = 0.0;
  double factor = 1.0;
  double ramp_seconds = 0.0;
};

/// One application topology of the scenario. A spec naming two or more
/// topologies runs them merged into a single disjoint graph over the same
/// machines (multi-tenant contention): every component name is prefixed
/// with "<name>." so the parts cannot collide.
struct TopologySpec {
  std::string name = "app";        ///< prefix; must be unique per spec
  AppKind app = AppKind::kUrlCount;
  bool use_dynamic_grouping = true;
  /// Extra seed offset so co-scheduled topologies draw distinct streams.
  std::uint64_t seed_offset = 0;
  /// Base arrival-rate profile (defaults match apps::RateProfile).
  double base_rate = 2500.0;       ///< tuples/second
  double amplitude = 1200.0;       ///< diurnal sinusoid amplitude
  double period = 60.0;            ///< diurnal sinusoid period (seconds)
  double burst_prob = 0.0;         ///< per-second burst probability
  double burst_factor = 2.0;
  double burst_duration = 5.0;
  /// Piecewise schedule on top of the base profile (surges, ramps).
  std::vector<RatePhaseSpec> phases;
  /// Parallelism overrides; 0 keeps the application default.
  std::size_t worker_parallelism = 0;  ///< the dynamic/control stage
  std::size_t sink_parallelism = 0;
};

/// Smooth seeded background interference (hog random walks and occasional
/// worker slowdown ramps) — the same generator the training traces use.
struct InterferenceSpec {
  double hog_intensity = 0.0;   ///< peak per-machine hog load (core-units); 0 off
  double hog_update = 1.0;      ///< hog walk update period (seconds)
  double ramp_rate = 0.0;       ///< expected slowdown ramps per 100 s per worker
  double ramp_magnitude = 4.0;  ///< peak slowdown factor of a ramp
};

/// One scheduled fault event, keyed by a closed set of kind strings:
///   slowdown        target=worker  value=factor (>=1)
///   clear-slowdown  target=worker
///   hog             target=machine value=core-units (>=0)
///   clear-hog       target=machine
///   stall           target=worker  value=seconds
///   drop            target=worker  value=probability [0,1]
///   ramp            target=worker  value=final factor value2=ramp seconds
///   crash           target=worker
///   restart         target=worker
///   link-delay      target=machine value2=peer machine value=extra seconds
///   clear-link-delay target=machine value2=peer machine
/// Unknown kinds and out-of-range targets/values are registration errors.
struct FaultSpec {
  std::string kind;
  double at = 0.0;
  std::size_t target = 0;
  double value = 0.0;
  double value2 = 0.0;
};

/// Elastic-scaling bounds and SLO targets for the "elastic" controller.
/// Mirrors control::RescaleConfig field-for-field; validated fail-closed
/// with the rest of the spec (registration and again before every run).
struct ElasticSpec {
  std::size_t min_workers = 1;    ///< never scale below this many active workers
  std::size_t max_workers = 0;    ///< upper bound on active workers; 0 = whole pool
  double slo_queue_depth = 48.0;  ///< SLO: max per-worker queue depth (tuples)
  double slo_p99_latency = 1.0;   ///< SLO: p99 complete latency (seconds)
  double headroom = 0.7;          ///< target utilization of the active workers
  double cooldown = 6.0;          ///< min seconds between rescale decisions
  double lead_time = 4.0;         ///< rate-trend forecast horizon (seconds)
  /// Modeled state-handoff pause per executor migration (sim backend;
  /// maps to ClusterConfig::rescale_pause).
  double rescale_pause = 0.05;
  /// Reactive threshold baseline (the T6 comparison arm): size from the
  /// observed max queue depth instead of the DRNN forecast.
  bool reactive = false;
};

/// The declarative description of a full run. Defaults mirror
/// default_cluster() so experiment specs stay terse.
struct ScenarioSpec {
  std::string name;         ///< registry key: [a-z0-9-], non-empty
  std::string description;  ///< one line, shown by `exp_scenario --list`

  // --- cluster shape ---------------------------------------------------
  std::size_t machines = 3;
  double cores_per_machine = 2.0;
  /// Heterogeneous override: per-machine core counts (empty = uniform
  /// cores_per_machine; otherwise exactly `machines` entries, each > 0).
  std::vector<double> machine_cores;
  std::size_t workers_per_machine = 2;
  double window_seconds = 1.0;
  double service_noise_cv = 0.15;
  double gc_interval_mean = 20.0;
  double gc_pause_mean = 0.03;

  // --- reliability / data path ----------------------------------------
  double ack_timeout = 8.0;
  std::size_t max_spout_pending = 4000;
  bool replay_on_failure = false;
  std::size_t max_replays = 12;
  std::size_t batch_size = 1;
  runtime::FlowControlConfig flow{};

  // --- workload --------------------------------------------------------
  std::vector<TopologySpec> topologies{TopologySpec{}};
  InterferenceSpec interference;
  std::vector<FaultSpec> faults;

  // --- control ---------------------------------------------------------
  /// Control arm: none | drnn | observed | elastic | drl | rate. Names
  /// other than "none" are the control::make_controller vocabulary, so
  /// the spec cannot accept an arm the factory cannot build.
  std::string controller = "none";
  double train_duration = 240.0;    ///< sim profiling trace for "drnn"/"elastic"
  /// Scaling bounds / SLO targets; consulted when controller == "elastic".
  ElasticSpec elastic;
  /// Deterministic sim training episodes for the "drl" controller (the
  /// DQN explores these with faults included, then runs the evaluation
  /// frozen). >= 1 when controller == "drl".
  std::size_t drl_episodes = 3;

  // --- run -------------------------------------------------------------
  runtime::BackendKind backend = runtime::BackendKind::kSim;
  std::uint64_t seed = 42;
  double duration = 120.0;  ///< sim seconds (sim) / wall-clock seconds (async)

  /// Fail-closed validation: throws std::invalid_argument with a
  /// diagnostic naming the offending field. Called at registration and
  /// again before every run.
  void validate() const;

  /// The simulated-cluster config this spec describes.
  dsps::ClusterConfig cluster_config() const;
  std::size_t worker_count() const { return machines * workers_per_machine; }
};

/// Set one spec field from its string key ("duration", "seed", "backend",
/// "machines", "controller", "batch-size", "queue-cap", "overflow-policy",
/// "hog", "train-duration", ...). Unknown keys are errors (fail closed),
/// as are unparsable values. The mutated spec must still pass validate().
void apply_override(ScenarioSpec& spec, const std::string& key, const std::string& value);
/// The closed set of keys apply_override accepts.
std::vector<std::string> override_keys();

/// Process-wide registry of named scenarios. Registration validates the
/// spec and rejects duplicate names; lookup is fail-closed (get throws on
/// unknown names and lists the registered ones in the diagnostic).
class ScenarioRegistry {
 public:
  static ScenarioRegistry& instance();

  /// Validates and stores. Throws std::invalid_argument on an invalid
  /// spec or duplicate name.
  void register_scenario(ScenarioSpec spec);
  bool contains(const std::string& name) const;
  /// Throws std::invalid_argument naming the unknown scenario (and the
  /// available ones) — unknown scenarios fail closed like unknown apps.
  const ScenarioSpec& get(const std::string& name) const;
  /// Registered names, sorted.
  std::vector<std::string> names() const;
  std::size_t size() const { return specs_.size(); }

 private:
  ScenarioRegistry();
  std::map<std::string, ScenarioSpec> specs_;
};

/// Static self-registration helper: construct one at namespace scope to
/// register a spec at load time. A spec that fails validation aborts the
/// process with the diagnostic on stderr (fail closed — a broken catalog
/// must not half-load).
struct ScenarioRegistrar {
  explicit ScenarioRegistrar(ScenarioSpec (*make_spec)());
};

/// Register `fn` (a function returning a ScenarioSpec) at load time.
#define REPRO_REGISTER_SCENARIO(fn) \
  static const ::repro::exp::ScenarioRegistrar repro_scenario_registrar_##fn{&fn};

/// Registers the built-in catalog (scenario_catalog.cpp) on first call;
/// idempotent. Called from ScenarioRegistry::instance(), which makes the
/// catalog available even to consumers that query the registry during
/// their own static initialization (load-time registrar order across TUs
/// is unspecified), and doubles as the linker anchor that pulls the
/// catalog TU out of the static library.
void register_builtin_scenarios();

// --- spec -> runnable pieces -------------------------------------------

/// The scenario's application graph: each topology built with its
/// workload schedule, merged (with name prefixes, when more than one part
/// shares the run) into one disjoint Topology over the shared cluster.
struct ScenarioApp {
  dsps::Topology topology;
  /// The per-part handles, names prefixed when merged.
  std::vector<apps::BuiltApp> parts;
};
ScenarioApp build_scenario_app(const ScenarioSpec& spec);

/// Pure function of (interference, seed, cluster shape, time range): the
/// hog-walk / slowdown-ramp fault plan the training traces and scenario
/// runs schedule. No live engine needed, so async runs can apply the
/// same plans.
dsps::FaultPlan make_interference_plan(const InterferenceSpec& interference, std::uint64_t seed,
                                       std::size_t machines, std::size_t workers, double t0,
                                       double duration);

/// The scenario's full fault plan: the seeded interference plan plus the
/// explicit FaultSpec events (validated against the cluster shape).
dsps::FaultPlan make_fault_plan(const ScenarioSpec& spec);

/// Outcome of one scenario run, backend-agnostic.
struct ScenarioRunResult {
  runtime::BackendKind backend = runtime::BackendKind::kSim;
  std::vector<dsps::WindowSample> history;
  dsps::EngineTotals totals;      ///< sim backend
  rt::RtTotals rt_totals;         ///< async backend
  double stall_seconds = 0.0;
  std::size_t control_rounds = 0;
  double mean_round_ms = 0.0;     ///< wall clock — excluded from golden tables
  std::size_t rescales = 0;       ///< elastic controller: applied rescale actions
  double worker_seconds = 0.0;    ///< elastic controller: active-worker integral
  /// Fault kinds the backend could not apply (async: sim-only kinds).
  std::vector<std::string> skipped_faults;
};

/// Run a validated spec on its backend (spec.backend). Sim runs are
/// deterministic: same spec -> byte-identical history and totals.
ScenarioRunResult run_scenario(const ScenarioSpec& spec);

/// Build (and, for "drl", train) the spec's control arm through the shared
/// control::make_controller factory; nullptr when spec.controller is
/// "none". run_scenario() is exactly make_scenario_controller() followed
/// by run_scenario_with(); splitting the two lets a bench inspect the
/// controller (e.g. the DRL arm's replay/train counters) after the run.
std::unique_ptr<control::Controller> make_scenario_controller(const ScenarioSpec& spec);

/// Run a spec under an externally built controller (borrowed; may be
/// nullptr for an uncontrolled run). The controller is attached to the
/// evaluation engine and its totals are copied onto the result.
ScenarioRunResult run_scenario_with(const ScenarioSpec& spec, control::Controller* controller);

/// Render the standard experiment table for a run: sampled windows
/// (throughput / latency / pending / failed / max queue) plus the totals
/// block. Deliberately contains no wall-clock column, so sim tables
/// byte-compare against golden files.
std::string render_scenario_table(const ScenarioSpec& spec, const ScenarioRunResult& result);

}  // namespace repro::exp

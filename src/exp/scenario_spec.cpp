#include "exp/scenario_spec.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "apps/continuous_query.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "control/controller.hpp"
#include "control/controller_factory.hpp"
#include "control/rescale_planner.hpp"
#include "rt/async_engine.hpp"

namespace repro::exp {

namespace {

[[noreturn]] void fail(const std::string& message) { throw std::invalid_argument(message); }

std::string q(const std::string& s) { return "\"" + s + "\""; }

/// "none|drnn|observed|elastic|drl|rate" — the controller vocabulary the
/// spec accepts, derived from the factory so the sets cannot drift.
std::string controller_vocabulary() {
  std::string out = "none";
  for (const auto& n : control::controller_names()) out += "|" + n;
  return out;
}

bool known_controller(const std::string& name) {
  if (name == "none") return true;
  const auto& names = control::controller_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

/// Full-consumption numeric parsers: std::stod/stoull accept trailing
/// garbage ("12x" -> 12), which would silently truncate a typo'd override
/// value — fail closed instead, naming the key.
double parse_double_value(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    double v = std::stod(value, &used);
    if (used != value.size()) fail("");
    return v;
  } catch (const std::exception&) {
    fail("scenario override " + key + ": " + q(value) + " is not a number");
  }
}

std::uint64_t parse_u64_value(const std::string& key, const std::string& value) {
  try {
    if (!value.empty() && value[0] == '-') fail("");
    std::size_t used = 0;
    unsigned long long v = std::stoull(value, &used);
    if (used != value.size()) fail("");
    return static_cast<std::uint64_t>(v);
  } catch (const std::exception&) {
    fail("scenario override " + key + ": " + q(value) + " is not a non-negative integer");
  }
}

bool parse_bool_value(const std::string& key, const std::string& value) {
  if (value == "true" || value == "1" || value == "on") return true;
  if (value == "false" || value == "0" || value == "off") return false;
  fail("scenario override " + key + ": " + q(value) + " is not a boolean (true|false|1|0|on|off)");
}

bool valid_name_chars(const std::string& name) {
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '-';
    if (!ok) return false;
  }
  return !name.empty();
}

/// Append the spec's explicit FaultSpec events onto `plan`, fail-closed:
/// unknown kind strings and out-of-range targets throw; value ranges are
/// enforced by the FaultPlan builders themselves. Shared by validate()
/// (dry run against an empty plan) and make_fault_plan().
void append_fault_events(dsps::FaultPlan& plan, const ScenarioSpec& spec) {
  std::size_t workers = spec.worker_count();
  std::size_t machines = spec.machines;
  for (std::size_t i = 0; i < spec.faults.size(); ++i) {
    const FaultSpec& f = spec.faults[i];
    std::string where = "faults[" + std::to_string(i) + "]";
    auto need_worker = [&] {
      if (f.target >= workers) {
        fail("scenario spec " + where + ".target: worker " + std::to_string(f.target) +
             " out of range (cluster has " + std::to_string(workers) + " workers)");
      }
    };
    auto need_machine = [&](std::size_t m, const char* field) {
      if (m >= machines) {
        fail("scenario spec " + where + "." + field + ": machine " + std::to_string(m) +
             " out of range (cluster has " + std::to_string(machines) + " machines)");
      }
    };
    if (f.at < 0.0) fail("scenario spec " + where + ".at: must be >= 0");
    try {
      if (f.kind == "slowdown") {
        need_worker();
        plan.slowdown(f.at, f.target, f.value);
      } else if (f.kind == "clear-slowdown") {
        need_worker();
        plan.clear_slowdown(f.at, f.target);
      } else if (f.kind == "hog") {
        need_machine(f.target, "target");
        plan.hog(f.at, f.target, f.value);
      } else if (f.kind == "clear-hog") {
        need_machine(f.target, "target");
        plan.clear_hog(f.at, f.target);
      } else if (f.kind == "stall") {
        need_worker();
        plan.stall(f.at, f.target, f.value);
      } else if (f.kind == "drop") {
        need_worker();
        plan.drop(f.at, f.target, f.value);
      } else if (f.kind == "ramp") {
        need_worker();
        plan.ramp(f.at, f.target, f.value, f.value2);
      } else if (f.kind == "crash") {
        need_worker();
        plan.crash(f.at, f.target);
      } else if (f.kind == "restart") {
        need_worker();
        plan.restart(f.at, f.target);
      } else if (f.kind == "link-delay") {
        need_machine(f.target, "target");
        need_machine(static_cast<std::size_t>(f.value2), "value2");
        plan.link_delay(f.at, f.target, static_cast<std::size_t>(f.value2), f.value);
      } else if (f.kind == "clear-link-delay") {
        need_machine(f.target, "target");
        need_machine(static_cast<std::size_t>(f.value2), "value2");
        plan.clear_link_delay(f.at, f.target, static_cast<std::size_t>(f.value2));
      } else {
        fail("scenario spec " + where + ".kind: unknown fault kind " + q(f.kind) +
             " (use slowdown|clear-slowdown|hog|clear-hog|stall|drop|ramp|crash|restart|"
             "link-delay|clear-link-delay)");
      }
    } catch (const std::invalid_argument& e) {
      // Re-anchor the FaultPlan builders' value diagnostics to the field.
      std::string msg = e.what();
      if (msg.rfind("scenario spec", 0) == 0 || msg.rfind("scenario override", 0) == 0) throw;
      fail("scenario spec " + where + " (" + f.kind + "): " + msg);
    }
  }
}

/// Map the spec's elastic block onto the controller config. Shared by
/// validate() (which round-trips it through RescaleConfig::validate) and
/// the run paths, so a spec that registers cannot fail at attach time.
control::ElasticControllerConfig make_elastic_config(const ScenarioSpec& spec) {
  control::ElasticControllerConfig cfg;
  cfg.rescale.min_workers = spec.elastic.min_workers;
  cfg.rescale.max_workers = spec.elastic.max_workers;
  cfg.rescale.slo_queue_depth = spec.elastic.slo_queue_depth;
  cfg.rescale.slo_p99_latency = spec.elastic.slo_p99_latency;
  cfg.rescale.headroom = spec.elastic.headroom;
  cfg.rescale.cooldown = spec.elastic.cooldown;
  cfg.rescale.lead_time = spec.elastic.lead_time;
  cfg.reactive = spec.elastic.reactive;
  return cfg;
}

apps::RateProfile rate_profile_of(const TopologySpec& topo) {
  apps::RateProfile rate;
  rate.base_rate = topo.base_rate;
  rate.amplitude = topo.amplitude;
  rate.period = topo.period;
  rate.burst_prob = topo.burst_prob;
  rate.burst_factor = topo.burst_factor;
  rate.burst_duration = topo.burst_duration;
  for (const auto& p : topo.phases) rate.phases.push_back({p.at, p.factor, p.ramp_seconds});
  return rate;
}

apps::BuiltApp build_part(const ScenarioSpec& spec, const TopologySpec& topo) {
  std::uint64_t seed = spec.seed + topo.seed_offset;
  if (topo.app == AppKind::kUrlCount) {
    apps::UrlCountOptions app;
    app.spout.seed = seed;
    app.spout.rate = rate_profile_of(topo);
    app.use_dynamic_grouping = topo.use_dynamic_grouping;
    if (topo.worker_parallelism > 0) app.counter_parallelism = topo.worker_parallelism;
    if (topo.sink_parallelism > 0) app.aggregator_parallelism = topo.sink_parallelism;
    return apps::build_url_count(app);
  }
  apps::ContinuousQueryOptions app;
  app.spout.seed = seed;
  app.spout.rate = rate_profile_of(topo);
  app.seed = seed + 3;
  app.use_dynamic_grouping = topo.use_dynamic_grouping;
  if (topo.worker_parallelism > 0) app.query_parallelism = topo.worker_parallelism;
  if (topo.sink_parallelism > 0) app.results_parallelism = topo.sink_parallelism;
  return apps::build_continuous_query(app);
}

/// Prefix every component name of a built part with "<prefix>." — the
/// multi-tenant merge renames parts so their graphs stay disjoint inside
/// one Topology. Safe after build(): groupings reference components by
/// name through StreamSubscription::from_component only, and the
/// DynamicRatio handle lives in the GroupingSpec, untouched by renames.
void prefix_part(apps::BuiltApp& part, const std::string& prefix) {
  auto renamed = [&](const std::string& name) { return prefix + "." + name; };
  for (auto& spout : part.topology.spouts) spout.name = renamed(spout.name);
  for (auto& bolt : part.topology.bolts) {
    bolt.name = renamed(bolt.name);
    for (auto& sub : bolt.subscriptions) sub.from_component = renamed(sub.from_component);
  }
  part.spout_name = renamed(part.spout_name);
  part.control_bolt = renamed(part.control_bolt);
  part.sink_name = renamed(part.sink_name);
}

}  // namespace

const char* app_name(AppKind app) {
  switch (app) {
    case AppKind::kUrlCount: return "url-count";
    case AppKind::kContinuousQuery: return "continuous-query";
  }
  // Fail closed: an out-of-range value (a bad cast, a corrupted spec)
  // must not masquerade as a real app in tables and registry listings.
  fail("app_name: value " + std::to_string(static_cast<int>(app)) +
       " is not a valid AppKind");
}

AppKind parse_app_kind(const std::string& name) {
  if (name == "url-count" || name == "url") return AppKind::kUrlCount;
  if (name == "continuous-query" || name == "cq") return AppKind::kContinuousQuery;
  fail("unknown app " + q(name) + " (use url-count|continuous-query)");
}

void ScenarioSpec::validate() const {
  auto bad = [&](const std::string& field, const std::string& why) {
    fail("scenario spec " + (name.empty() ? std::string("<unnamed>") : name) + ": " + field +
         " " + why);
  };
  if (!valid_name_chars(name)) bad("name", "must be non-empty [a-z0-9-] (got " + q(name) + ")");
  if (machines == 0) bad("machines", "must be >= 1");
  if (!(cores_per_machine > 0.0)) bad("cores_per_machine", "must be > 0");
  if (!machine_cores.empty()) {
    if (machine_cores.size() != machines) {
      bad("machine_cores", "must be empty or hold exactly one entry per machine (" +
                               std::to_string(machine_cores.size()) + " entries for " +
                               std::to_string(machines) + " machines)");
    }
    for (double c : machine_cores) {
      if (!(c > 0.0)) bad("machine_cores", "entries must be > 0");
    }
  }
  if (workers_per_machine == 0) bad("workers_per_machine", "must be >= 1");
  if (!(window_seconds > 0.0)) bad("window_seconds", "must be > 0");
  if (service_noise_cv < 0.0) bad("service_noise_cv", "must be >= 0");
  if (gc_interval_mean < 0.0) bad("gc_interval_mean", "must be >= 0");
  if (!(gc_pause_mean >= 0.0)) bad("gc_pause_mean", "must be >= 0");
  if (!(ack_timeout > 0.0)) bad("ack_timeout", "must be > 0");
  if (replay_on_failure && max_replays == 0) {
    bad("max_replays", "must be >= 1 when replay_on_failure is on");
  }
  if (batch_size == 0) bad("batch_size", "must be >= 1");
  try {
    flow.validate();
  } catch (const std::invalid_argument& e) {
    bad("flow", std::string("invalid: ") + e.what());
  }
  if (flow.policy == runtime::OverflowPolicy::kBlockUpstream) {
    if (max_spout_pending == 0) {
      bad("max_spout_pending", "must be > 0 under the block overflow policy (backpressure "
                               "reaches the spouts through the acker's pending count)");
    }
    if (batch_size > flow.queue_capacity) {
      bad("batch_size", "must be <= flow.queue_capacity under the block overflow policy "
                        "(batches park whole; " +
                            std::to_string(batch_size) + " > " +
                            std::to_string(flow.queue_capacity) + ")");
    }
  }

  if (topologies.empty()) bad("topologies", "must name at least one topology");
  for (std::size_t i = 0; i < topologies.size(); ++i) {
    const TopologySpec& t = topologies[i];
    std::string field = "topologies[" + std::to_string(i) + "]";
    if (!valid_name_chars(t.name)) {
      bad(field + ".name", "must be non-empty [a-z0-9-] (got " + q(t.name) + ")");
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (topologies[j].name == t.name) bad(field + ".name", "duplicate name " + q(t.name));
    }
    if (!(t.base_rate > 0.0)) bad(field + ".base_rate", "must be > 0");
    if (t.amplitude < 0.0) bad(field + ".amplitude", "must be >= 0");
    if (!(t.period > 0.0)) bad(field + ".period", "must be > 0");
    if (t.burst_prob < 0.0 || t.burst_prob > 1.0) bad(field + ".burst_prob", "must be in [0, 1]");
    if (!(t.burst_factor > 0.0)) bad(field + ".burst_factor", "must be > 0");
    if (t.burst_duration < 0.0) bad(field + ".burst_duration", "must be >= 0");
    double prev_at = -1.0;
    for (std::size_t p = 0; p < t.phases.size(); ++p) {
      std::string pf = field + ".phases[" + std::to_string(p) + "]";
      if (t.phases[p].at < 0.0) bad(pf + ".at", "must be >= 0");
      if (t.phases[p].at < prev_at) bad(pf + ".at", "phases must be ascending by at");
      prev_at = t.phases[p].at;
      if (!(t.phases[p].factor > 0.0)) bad(pf + ".factor", "must be > 0");
      if (t.phases[p].ramp_seconds < 0.0) bad(pf + ".ramp_seconds", "must be >= 0");
    }
  }

  if (interference.hog_intensity < 0.0) bad("interference.hog_intensity", "must be >= 0");
  if (!(interference.hog_update > 0.0)) bad("interference.hog_update", "must be > 0");
  if (interference.ramp_rate < 0.0) bad("interference.ramp_rate", "must be >= 0");
  if (interference.ramp_magnitude < 1.0) bad("interference.ramp_magnitude", "must be >= 1");

  {
    // Dry-run the explicit fault events through the FaultPlan builders so
    // bad kinds/targets/values fail at registration, not run time.
    dsps::FaultPlan probe;
    append_fault_events(probe, *this);
  }

  if (!known_controller(controller)) {
    bad("controller",
        "unknown controller " + q(controller) + " (use " + controller_vocabulary() + ")");
  }
  if ((controller == "drnn" || controller == "elastic") && !(train_duration > 0.0)) {
    bad("train_duration", "must be > 0 for the " + controller + " controller");
  }
  if (controller == "drl" && drl_episodes == 0) {
    bad("drl_episodes", "must be >= 1 for the drl controller (the DQN trains on deterministic "
                        "sim episodes before the evaluation run)");
  }
  if (controller == "elastic") {
    if (elastic.min_workers > worker_count()) {
      bad("elastic.min_workers", "exceeds the worker pool (" + std::to_string(worker_count()) +
                                     " workers)");
    }
    if (elastic.rescale_pause < 0.0) bad("elastic.rescale_pause", "must be >= 0");
    try {
      make_elastic_config(*this).rescale.validate();
    } catch (const std::invalid_argument& e) {
      bad("elastic", std::string("invalid: ") + e.what());
    }
  }
  if (!(duration > 0.0)) bad("duration", "must be > 0");
}

dsps::ClusterConfig ScenarioSpec::cluster_config() const {
  dsps::ClusterConfig cfg;
  cfg.machines = machines;
  cfg.cores_per_machine = cores_per_machine;
  cfg.machine_cores = machine_cores;
  cfg.workers_per_machine = workers_per_machine;
  cfg.window_seconds = window_seconds;
  cfg.service_noise_cv = service_noise_cv;
  cfg.gc_interval_mean = gc_interval_mean;
  cfg.gc_pause_mean = gc_pause_mean;
  cfg.ack_timeout = ack_timeout;
  cfg.max_spout_pending = max_spout_pending;
  cfg.replay_on_failure = replay_on_failure;
  cfg.max_replays = max_replays;
  cfg.batch_size = batch_size;
  cfg.flow = flow;
  cfg.rescale_pause = elastic.rescale_pause;
  cfg.seed = seed;
  return cfg;
}

void apply_override(ScenarioSpec& spec, const std::string& key, const std::string& value) {
  if (key == "backend") {
    try {
      spec.backend = runtime::parse_backend_kind(value);
    } catch (const std::invalid_argument& e) {
      fail(std::string("scenario override backend: ") + e.what());
    }
  } else if (key == "seed") {
    spec.seed = parse_u64_value(key, value);
  } else if (key == "duration") {
    spec.duration = parse_double_value(key, value);
  } else if (key == "train-duration") {
    spec.train_duration = parse_double_value(key, value);
  } else if (key == "controller") {
    if (!known_controller(value)) {
      fail("scenario override controller: unknown controller " + q(value) + " (use " +
           controller_vocabulary() + ")");
    }
    spec.controller = value;
  } else if (key == "drl-episodes") {
    spec.drl_episodes = static_cast<std::size_t>(parse_u64_value(key, value));
  } else if (key == "min-workers") {
    spec.elastic.min_workers = static_cast<std::size_t>(parse_u64_value(key, value));
  } else if (key == "max-workers") {
    spec.elastic.max_workers = static_cast<std::size_t>(parse_u64_value(key, value));
  } else if (key == "slo-queue") {
    spec.elastic.slo_queue_depth = parse_double_value(key, value);
  } else if (key == "machines") {
    spec.machines = static_cast<std::size_t>(parse_u64_value(key, value));
  } else if (key == "workers") {
    spec.workers_per_machine = static_cast<std::size_t>(parse_u64_value(key, value));
  } else if (key == "cores") {
    spec.cores_per_machine = parse_double_value(key, value);
    spec.machine_cores.clear();
  } else if (key == "window") {
    spec.window_seconds = parse_double_value(key, value);
  } else if (key == "ack-timeout") {
    spec.ack_timeout = parse_double_value(key, value);
  } else if (key == "max-pending") {
    spec.max_spout_pending = static_cast<std::size_t>(parse_u64_value(key, value));
  } else if (key == "replay") {
    spec.replay_on_failure = parse_bool_value(key, value);
  } else if (key == "max-replays") {
    spec.max_replays = static_cast<std::size_t>(parse_u64_value(key, value));
  } else if (key == "batch-size") {
    spec.batch_size = static_cast<std::size_t>(parse_u64_value(key, value));
  } else if (key == "queue-cap") {
    spec.flow.queue_capacity = static_cast<std::size_t>(parse_u64_value(key, value));
  } else if (key == "overflow-policy") {
    try {
      spec.flow.policy = runtime::parse_overflow_policy(value);
    } catch (const std::invalid_argument& e) {
      fail(std::string("scenario override overflow-policy: ") + e.what());
    }
  } else if (key == "hog") {
    spec.interference.hog_intensity = parse_double_value(key, value);
  } else if (key == "hog-update") {
    spec.interference.hog_update = parse_double_value(key, value);
  } else if (key == "ramps") {
    spec.interference.ramp_rate = parse_double_value(key, value);
  } else if (key == "ramp-magnitude") {
    spec.interference.ramp_magnitude = parse_double_value(key, value);
  } else if (key == "app") {
    // Retarget every topology of the scenario (the common single-part
    // case; multi-part specs usually pin apps per part instead).
    AppKind app = parse_app_kind(value);
    for (auto& t : spec.topologies) t.app = app;
  } else if (key == "rate") {
    double rate = parse_double_value(key, value);
    for (auto& t : spec.topologies) t.base_rate = rate;
  } else {
    std::string keys;
    for (const auto& k : override_keys()) keys += (keys.empty() ? "" : "|") + k;
    fail("unknown scenario override key " + q(key) + " (use " + keys + ")");
  }
}

std::vector<std::string> override_keys() {
  return {"backend",   "seed",          "duration", "train-duration", "controller",
          "drl-episodes", "machines",   "workers",  "cores",          "window",
          "ack-timeout", "max-pending", "replay",   "max-replays",    "batch-size",
          "queue-cap", "overflow-policy", "hog",    "hog-update",     "ramps",
          "ramp-magnitude", "app",      "rate",     "min-workers",    "max-workers",
          "slo-queue"};
}

ScenarioRegistry::ScenarioRegistry() = default;

ScenarioRegistry& ScenarioRegistry::instance() {
  // The registry itself first (safe under the re-entrant call below),
  // then the built-in catalog: register_builtin_scenarios() registers
  // lazily on first use, so even a consumer running during its own
  // static initialization sees the full catalog.
  static ScenarioRegistry registry;
  register_builtin_scenarios();
  return registry;
}

void ScenarioRegistry::register_scenario(ScenarioSpec spec) {
  spec.validate();
  if (specs_.count(spec.name) != 0) {
    fail("scenario registry: duplicate scenario name " + q(spec.name));
  }
  specs_.emplace(spec.name, std::move(spec));
}

bool ScenarioRegistry::contains(const std::string& name) const {
  return specs_.count(name) != 0;
}

const ScenarioSpec& ScenarioRegistry::get(const std::string& name) const {
  auto it = specs_.find(name);
  if (it == specs_.end()) {
    std::string known;
    for (const auto& [key, value] : specs_) {
      (void)value;
      known += (known.empty() ? "" : ", ") + key;
    }
    fail("unknown scenario " + q(name) + " (registered: " +
         (known.empty() ? "<none>" : known) + ")");
  }
  return it->second;
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(specs_.size());
  for (const auto& [key, value] : specs_) {
    (void)value;
    out.push_back(key);
  }
  return out;  // std::map iterates sorted
}

ScenarioRegistrar::ScenarioRegistrar(ScenarioSpec (*make_spec)()) {
  try {
    ScenarioRegistry::instance().register_scenario(make_spec());
  } catch (const std::exception& e) {
    // Fail closed at load time: a broken catalog must not half-load into
    // a registry that then silently misses scenarios.
    std::fprintf(stderr, "fatal: scenario registration failed: %s\n", e.what());
    std::abort();
  }
}

ScenarioApp build_scenario_app(const ScenarioSpec& spec) {
  ScenarioApp app;
  for (const auto& topo : spec.topologies) app.parts.push_back(build_part(spec, topo));

  if (app.parts.size() == 1) {
    // Single-tenant: the historical un-prefixed graph, byte-identical to
    // what make_app always built.
    app.topology = app.parts.front().topology;
    return app;
  }

  // Multi-tenant merge: rename each part's components behind its
  // topology-spec prefix and concatenate into one disjoint graph, so both
  // apps share the cluster (machines, workers, scheduler interleaving)
  // while their tuple streams never cross.
  app.topology.name = spec.name;
  for (std::size_t i = 0; i < app.parts.size(); ++i) {
    prefix_part(app.parts[i], spec.topologies[i].name);
    for (auto& spout : app.parts[i].topology.spouts) app.topology.spouts.push_back(spout);
    for (auto& bolt : app.parts[i].topology.bolts) app.topology.bolts.push_back(bolt);
  }
  return app;
}

dsps::FaultPlan make_interference_plan(const InterferenceSpec& interference, std::uint64_t seed,
                                       std::size_t machines, std::size_t workers, double t0,
                                       double duration) {
  dsps::FaultPlan plan;

  if (interference.hog_intensity > 0.0) {
    // Smooth per-machine hog walks: sum of two incommensurate sinusoids
    // plus an Ornstein-Uhlenbeck-style perturbation, clamped to
    // [0, intensity]. Updated every hog_update seconds: the load a machine
    // will see next window is foreshadowed by the load it sees now — the
    // temporal structure the DRNN exploits.
    for (std::size_t m = 0; m < machines; ++m) {
      common::Pcg32 rng(seed + 1000 + m, 0x40);
      double p1 = rng.uniform(35.0, 75.0);
      double p2 = rng.uniform(110.0, 190.0);
      double phase1 = rng.uniform(0.0, 2.0 * M_PI);
      double phase2 = rng.uniform(0.0, 2.0 * M_PI);
      double ou = 0.0;
      for (double t = t0; t < t0 + duration; t += interference.hog_update) {
        ou = 0.9 * ou + rng.normal(0.0, 0.12);
        double base = 0.5 + 0.45 * std::sin(2.0 * M_PI * t / p1 + phase1) +
                      0.25 * std::sin(2.0 * M_PI * t / p2 + phase2) + ou;
        double load = std::clamp(base, 0.0, 1.0) * interference.hog_intensity;
        plan.hog(t, m, load);
      }
    }
  }

  if (interference.ramp_rate > 0.0) {
    // Occasional slowdown ramps so training traces contain misbehaviour
    // episodes (ramp up over ~8s, hold ~12s, ramp back down).
    for (std::size_t w = 0; w < workers; ++w) {
      common::Pcg32 rng(seed + 2000 + w, 0x41);
      double t = t0;
      for (;;) {
        t += rng.exponential(interference.ramp_rate / 100.0);
        if (t + 25.0 >= t0 + duration) break;
        double magnitude = 1.0 + rng.uniform(0.5, 1.0) * (interference.ramp_magnitude - 1.0);
        plan.ramp(t, w, magnitude, 8.0);
        plan.ramp(t + 20.0, w, 1.0, 5.0);
        t += 30.0;
      }
    }
  }

  return plan;
}

dsps::FaultPlan make_fault_plan(const ScenarioSpec& spec) {
  dsps::FaultPlan plan = make_interference_plan(spec.interference, spec.seed, spec.machines,
                                                spec.worker_count(), 0.0, spec.duration);
  append_fault_events(plan, spec);
  return plan;
}

namespace {

std::shared_ptr<control::PerformancePredictor> make_scenario_predictor(const ScenarioSpec& spec) {
  if (spec.controller == "none") return nullptr;
  // Model-free arms: the DQN learns online, the AIMD rate policy is pure.
  if (spec.controller == "drl" || spec.controller == "rate") return nullptr;
  if (spec.controller == "observed") return control::make_predictor("observed", spec.seed);
  // The reactive elastic baseline sizes from observed queue depths only.
  if (spec.controller == "elastic" && spec.elastic.reactive) return nullptr;

  // "drnn" / "elastic": pretrain on a simulator profiling trace of the same scenario
  // (whatever backend then runs it) with slowdown ramps mixed in so the
  // model sees misbehaviour episodes — the experiments' standard recipe.
  ScenarioSpec train = spec;
  train.backend = runtime::BackendKind::kSim;
  train.controller = "none";
  train.faults.clear();  // the profiling trace precedes the injected faults
  train.interference.ramp_rate = std::max(train.interference.ramp_rate, 4.0);
  train.duration = spec.train_duration;

  ScenarioApp app = build_scenario_app(train);
  dsps::Engine engine(app.topology, train.cluster_config());
  engine.apply_fault_plan(make_fault_plan(train));
  engine.run_for(train.duration);
  const auto& trace = engine.history();

  std::vector<std::uint64_t> executed;
  for (const auto& sample : trace) {
    if (executed.size() < sample.workers.size()) executed.resize(sample.workers.size(), 0);
    for (const auto& w : sample.workers) executed[w.worker] += w.executed;
  }
  std::vector<std::size_t> workers;
  for (std::size_t w = 0; w < executed.size(); ++w) {
    if (executed[w] > 0) workers.push_back(w);
  }

  auto predictor = control::make_predictor("drnn", spec.seed + 17);
  predictor->fit(trace, workers);
  return predictor;
}

/// Copy a finished controller's totals onto the result — one path for
/// every kind, via the Controller interface.
void finish_controller_stats(const control::Controller* controller, ScenarioRunResult& result) {
  if (controller == nullptr) return;
  control::ControllerTotals totals = controller->totals();
  result.control_rounds = totals.control_rounds;
  result.mean_round_ms = totals.mean_round_ms;
  result.rescales = totals.rescales;
  result.worker_seconds = totals.worker_seconds;
}

/// The "drl" arm: train the DQN on deterministic sim episodes of the same
/// scenario (faults and interference included — that is what it must learn
/// to survive), then freeze the policy for the evaluation run. Fixed spec
/// seed -> identical episodes -> identical policy.
std::unique_ptr<control::Controller> train_scenario_drl(const ScenarioSpec& spec) {
  control::ControllerOptions opts;
  opts.seed = spec.seed;
  std::unique_ptr<control::Controller> owned = control::make_controller("drl", opts);
  auto* drl = static_cast<control::DrlController*>(owned.get());

  ScenarioSpec train = spec;
  train.backend = runtime::BackendKind::kSim;
  for (std::size_t ep = 0; ep < spec.drl_episodes; ++ep) {
    // Distinct episode seeds so exploration sees workload variation, all
    // derived from the spec seed for reproducibility.
    train.seed = spec.seed + 101 * (ep + 1);
    ScenarioApp app = build_scenario_app(train);
    dsps::Engine engine(app.topology, train.cluster_config());
    engine.apply_fault_plan(make_fault_plan(train));
    drl->set_training(true);
    drl->attach(engine);
    engine.run_for(train.duration);
    drl->end_episode();
  }
  drl->set_training(false);
  return owned;
}

ScenarioRunResult run_scenario_sim(const ScenarioSpec& spec, control::Controller* controller) {
  ScenarioApp app = build_scenario_app(spec);
  dsps::Engine engine(app.topology, spec.cluster_config());
  engine.apply_fault_plan(make_fault_plan(spec));

  if (controller) controller->attach(engine);

  engine.run_for(spec.duration);

  ScenarioRunResult result;
  result.backend = runtime::BackendKind::kSim;
  result.history = engine.history();
  result.totals = engine.totals();
  result.stall_seconds = engine.flow_control()->total_stall_seconds();
  finish_controller_stats(controller, result);
  return result;
}

/// Live fault application for the wall-clock backend: sorted plan events
/// replayed on a timeline thread through the ControlSurface actuators.
/// Sim-only kinds (machine hogs, stalls, link delays — they model the
/// simulated cluster, not the in-process threads) are skipped and
/// reported; ramps degrade to a step slowdown at the ramp's end value.
ScenarioRunResult run_scenario_async(const ScenarioSpec& spec, control::Controller* controller) {
  rt::AsyncConfig cfg;
  cfg.workers = spec.worker_count();
  cfg.window_seconds = spec.window_seconds;
  cfg.ack_timeout = spec.ack_timeout;
  cfg.max_spout_pending = spec.max_spout_pending;
  cfg.flow = spec.flow;
  cfg.batch_size = spec.batch_size;

  ScenarioApp app = build_scenario_app(spec);
  rt::AsyncEngine engine(app.topology, cfg);

  if (controller) controller->attach(engine);

  ScenarioRunResult result;

  dsps::FaultPlan plan = make_fault_plan(spec);
  std::vector<dsps::FaultEvent> live;
  auto skip = [&](const char* kind) {
    for (const auto& s : result.skipped_faults) {
      if (s == kind) return;
    }
    result.skipped_faults.push_back(kind);
  };
  for (const auto& ev : plan.events) {
    if (ev.at >= spec.duration) continue;
    switch (ev.kind) {
      case dsps::FaultKind::kWorkerSlowdown:
      case dsps::FaultKind::kWorkerDrop:
      case dsps::FaultKind::kWorkerRamp:
      case dsps::FaultKind::kWorkerCrash:
      case dsps::FaultKind::kWorkerRestart:
        live.push_back(ev);
        break;
      case dsps::FaultKind::kMachineHog: skip("hog"); break;
      case dsps::FaultKind::kWorkerStall: skip("stall"); break;
      case dsps::FaultKind::kLinkDelay: skip("link-delay"); break;
    }
  }
  std::stable_sort(live.begin(), live.end(),
                   [](const dsps::FaultEvent& a, const dsps::FaultEvent& b) { return a.at < b.at; });

  auto as_ms = [](double seconds) {
    return std::chrono::milliseconds(static_cast<long long>(seconds * 1e3));
  };
  engine.start();
  auto start = std::chrono::steady_clock::now();
  for (const auto& ev : live) {
    std::this_thread::sleep_until(start + as_ms(ev.at));
    switch (ev.kind) {
      case dsps::FaultKind::kWorkerSlowdown: engine.set_worker_slowdown(ev.target, ev.value); break;
      case dsps::FaultKind::kWorkerDrop: engine.set_worker_drop_prob(ev.target, ev.value); break;
      case dsps::FaultKind::kWorkerRamp: engine.set_worker_slowdown(ev.target, ev.value); break;
      case dsps::FaultKind::kWorkerCrash: engine.crash_worker(ev.target); break;
      case dsps::FaultKind::kWorkerRestart: engine.restart_worker(ev.target); break;
      default: break;
    }
  }
  std::this_thread::sleep_until(start + as_ms(spec.duration));
  engine.stop();

  result.backend = spec.backend;
  result.history = engine.window_history().samples();
  result.rt_totals = engine.totals();
  result.stall_seconds = engine.flow_control()->total_stall_seconds();
  finish_controller_stats(controller, result);
  return result;
}

}  // namespace

std::unique_ptr<control::Controller> make_scenario_controller(const ScenarioSpec& spec) {
  if (spec.controller == "none") return nullptr;
  if (spec.controller == "drl") return train_scenario_drl(spec);
  control::ControllerOptions opts;
  opts.seed = spec.seed;
  opts.predictor = make_scenario_predictor(spec);
  opts.elastic = make_elastic_config(spec);
  return control::make_controller(spec.controller, opts);
}

ScenarioRunResult run_scenario_with(const ScenarioSpec& spec, control::Controller* controller) {
  spec.validate();
  switch (spec.backend) {
    case runtime::BackendKind::kSim: return run_scenario_sim(spec, controller);
    case runtime::BackendKind::kAsync: return run_scenario_async(spec, controller);
  }
  fail("run_scenario_with: invalid backend enum value");
}

ScenarioRunResult run_scenario(const ScenarioSpec& spec) {
  spec.validate();  // before controller construction: reject bad specs, not mid-train
  auto controller = make_scenario_controller(spec);
  return run_scenario_with(spec, controller.get());
}

std::string render_scenario_table(const ScenarioSpec& spec, const ScenarioRunResult& result) {
  std::ostringstream out;
  std::string apps;
  for (const auto& t : spec.topologies) {
    apps += (apps.empty() ? "" : ", ") + t.name + "=" + app_name(t.app);
  }
  out << "scenario " << spec.name << " [" << runtime::backend_kind_name(result.backend)
      << "] seed=" << spec.seed << " apps: " << apps << "\n";

  common::Table table(
      {"t(s)", "throughput", "avg_latency(ms)", "p99(ms)", "pending", "failed", "max q"});
  std::size_t step = std::max<std::size_t>(1, result.history.size() / 12);
  for (std::size_t i = step - 1; i < result.history.size(); i += step) {
    const auto& w = result.history[i];
    std::size_t max_q = 0;
    for (const auto& t : w.tasks) max_q = std::max(max_q, t.queue_len);
    table.add_row({common::format_double(w.time, 0),
                   common::format_double(w.topology.throughput, 0),
                   common::format_double(w.topology.avg_complete_latency * 1e3, 2),
                   common::format_double(w.topology.p99_complete_latency * 1e3, 2),
                   std::to_string(w.topology.pending), std::to_string(w.topology.failed),
                   std::to_string(max_q)});
  }
  out << table.to_string();

  // Totals block. Deliberately no wall-clock figures (control round times,
  // real elapsed time), so sim runs byte-compare against golden files.
  if (result.backend == runtime::BackendKind::kSim) {
    const auto& t = result.totals;
    out << "totals: roots=" << t.roots_emitted << " acked=" << t.acked << " failed=" << t.failed
        << " executed=" << t.tuples_executed << " lost=" << t.tuples_lost
        << " shed=" << t.tuples_dropped_overflow << " replays=" << t.replays
        << " crashes=" << t.worker_crashes << " restarts=" << t.worker_restarts << "\n";
  } else {
    const auto& t = result.rt_totals;
    out << "totals: roots=" << t.roots_emitted << " acked=" << t.acked << " failed=" << t.failed
        << " executed=" << t.executed << " lost=" << t.lost << " shed=" << t.dropped_overflow
        << " crashes=" << t.worker_crashes << " restarts=" << t.worker_restarts << "\n";
  }
  if (spec.flow.bounded()) {
    out << "flow control (" << runtime::overflow_policy_name(spec.flow.policy) << ", cap "
        << spec.flow.queue_capacity << "): stall=" << common::format_double(result.stall_seconds, 1)
        << "s\n";
  }
  if (spec.controller == "elastic") {
    out << "controller (elastic" << (spec.elastic.reactive ? ", reactive" : "")
        << "): " << result.rescales << " rescales, worker-seconds="
        << common::format_double(result.worker_seconds, 1) << "\n";
  } else if (result.control_rounds > 0) {
    out << "controller (" << spec.controller << "): " << result.control_rounds
        << " control rounds\n";
  }
  if (!result.skipped_faults.empty()) {
    std::string skipped;
    for (const auto& s : result.skipped_faults) skipped += (skipped.empty() ? "" : ", ") + s;
    out << "note: sim-only fault kinds skipped on this backend: " << skipped << "\n";
  }
  return out.str();
}

}  // namespace repro::exp

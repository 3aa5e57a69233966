#pragma once
// Deterministic chaos-test harness: seeded random scenarios (topology,
// cluster shape, fault plan with crashes/restarts/soft faults/link-delay
// spikes, split-ratio schedule) run on the simulated engine with
// at-least-once replay enabled, plus invariant checks over the outcome —
// tuple conservation, replay completeness, placement-table consistency.
// Everything is a pure function of the scenario seed, so a failing seed
// is a one-command reproduction.
#include <cstdint>
#include <string>
#include <vector>

#include "dsps/engine.hpp"
#include "dsps/fault.hpp"
#include "exp/scenario_spec.hpp"
#include "rt/async_engine.hpp"

namespace repro::exp {

/// One seeded chaos scenario. All fields derive deterministically from
/// `seed` (see make_chaos_spec); they are materialized so tests can print
/// and reason about a failing scenario.
struct ChaosSpec {
  std::uint64_t seed = 0;

  // Cluster shape.
  std::size_t machines = 2;
  std::size_t workers_per_machine = 2;

  // Topology: spout -> relay stage(s) -> sink, linear.
  double spout_rate = 600.0;       ///< tuples/second
  std::int64_t tuple_limit = 500;  ///< finite stream: values 0..limit-1
  std::vector<std::size_t> stage_parallelism;
  /// Grouping per relay stage and for the sink subscription:
  /// 0 = shuffle, 1 = fields (on the sequence value), 2 = dynamic.
  std::vector<int> stage_grouping;
  std::size_t sink_parallelism = 1;
  int sink_grouping = 1;

  // Reliability knobs.
  double ack_timeout = 1.0;
  std::size_t max_replays = 12;

  /// Bounded data path for the run (not seed-derived: tests set it to
  /// re-run the same seeded scenario with bounded queues). Default
  /// kUnbounded preserves the historical scenarios byte for byte.
  runtime::FlowControlConfig flow{};

  /// Columnar batch size for the data path (not seed-derived: tests set
  /// it to re-run the same seeded scenario batched). The default 1
  /// preserves the historical per-tuple scenarios byte for byte.
  std::size_t batch_size = 1;

  // Fault plan (crash/restart pairs, soft faults with clears, link-delay
  // spikes) and split-ratio schedule for dynamic stages.
  dsps::FaultPlan plan;
  struct RatioChange {
    double at = 0.0;
    std::size_t stage = 0;  ///< index into the dynamic stages, emission order
    std::vector<double> ratios;
  };
  std::vector<RatioChange> ratio_changes;

  /// Seeded elastic rescale events (invariant 6): sequential
  /// non-overlapping retire -> re-add pairs, targets drawn from workers
  /// the crash plan never touches (so a graceful drain always has an
  /// alive-and-active host). Applied on all three backends. Drawn from a
  /// separate RNG stream, so the historical scenario fields above stay
  /// byte-identical seed for seed.
  struct RescaleEvent {
    double at = 0.0;
    std::size_t worker = 0;
    bool retire = true;  ///< true = retire (graceful drain), false = re-add
  };
  std::vector<RescaleEvent> rescale_events;

  double duration = 0.0;  ///< nominal run time (stream + fault window)
  double drain = 0.0;     ///< extra quiesce time (covers replay rounds)

  // Derived facts the invariant checks condition on.
  bool has_drop = false;   ///< plan includes drop faults
  bool has_crash = false;  ///< plan includes worker crashes
  bool has_rescale = false;///< rescale_events is non-empty
  /// True when every grouping is deterministic (fields) and no ratio
  /// schedule exists: the scenario's crash-free projection routes
  /// identically on the sim and async backends, task by task.
  bool parity_friendly = false;
};

/// Generate the scenario for `seed`. Same seed -> identical spec.
ChaosSpec make_chaos_spec(std::uint64_t seed);

/// From-scenario form: draw the chaos scenario for `seed` exactly like the
/// plain generator, but force the cluster shape (machines, workers per
/// machine) and data-path configuration (flow, batch size) from a
/// registered ScenarioSpec — so the chaos invariants can hammer the same
/// shapes the named scenarios run. Deterministic in (scenario, seed);
/// degenerate shapes with a single worker get no crash/restart pairs (a
/// survivor must always exist).
ChaosSpec make_chaos_spec(const ScenarioSpec& scenario, std::uint64_t seed);

/// Outcome of a simulated chaos run, everything the invariants inspect.
struct ChaosReport {
  dsps::EngineTotals totals;
  std::size_t pending_end = 0;      ///< in-flight roots after the drain
  std::size_t batches_end = 0;      ///< batch slots still in use after the drain
  std::uint64_t residual_queued = 0;///< tuples still queued after the drain
  std::string placement_audit;      ///< final audit ("" = consistent)
  std::string window_audit;         ///< first per-window audit failure
  std::uint64_t missing_values = 0;   ///< spout values never seen by a sink
  std::uint64_t duplicate_values = 0; ///< values seen more than once (replay)
  std::vector<std::uint64_t> executed_per_task;  ///< summed over windows
  std::vector<bool> alive_end;      ///< per-worker liveness after the run
  std::vector<bool> active_end;     ///< per-worker elastic activity after the run
  /// Bounded-data-path observations (zero under kUnbounded).
  std::uint64_t parked_end = 0;     ///< tuples still parked at emit sites after the drain
  std::size_t peak_queue_len = 0;   ///< max per-task queue_len over all window samples
  double stall_seconds = 0.0;       ///< total backpressure-stall time (kBlockUpstream)
};

/// Run the scenario on the simulated engine. `include_faults=false` runs
/// the crash-free projection (no fault plan; split-ratio schedule still
/// applies) — the mirror run for fault-isolation and parity checks.
ChaosReport run_chaos_sim(const ChaosSpec& spec, bool include_faults = true);

/// Crash-free wall-clock mirror on the async event-loop runtime: runs the
/// spec's topology (no faults) until the finite stream drains and returns
/// per-task executed counts. Only meaningful for parity-friendly specs,
/// where routing is deterministic across backends.
std::vector<std::uint64_t> run_chaos_async(const ChaosSpec& spec);

/// Bounded/batched chaos drain on the async backend: runs the crash-free
/// spec with spec.flow / spec.batch_size applied (so parked batches and
/// task suspension are actually exercised) until the finite stream drains
/// or a safety deadline passes, then returns the engine totals for the
/// conservation checks. Callers assert executed == tuple_limit * stages,
/// zero overflow drops under kBlockUpstream, and zero lost tuples.
rt::RtTotals run_chaos_async_bounded(const ChaosSpec& spec);

/// Evaluate the chaos invariants over a simulated run:
///   1. conservation   — every registered root acked or failed, nothing
///                       pending, queued or holding a batch slot after the
///                       drain, and delivered tuples fully accounted as
///                       executed/dropped/lost;
///   2. replay completeness — no spout value missing at the sinks (crash
///                       faults only), or missing <= replays_exhausted
///                       when drop faults can exhaust the replay budget;
///   3. routing consistency — placement tables audit clean at every
///                       window boundary and at the end;
///   4. recovery       — every crashed worker restarted by plan
///                       construction, so all workers end alive;
///   5. bounded data path (when spec.flow is bounded) — the run still
///                       drains (no tuple parked at an emit site forever:
///                       backpressure never wedges), conservation extends
///                       to overflow drops, observed queue depth never
///                       exceeds the configured capacity, and
///                       kBlockUpstream is lossless (zero overflow drops);
///   6. rescale        — every scripted retire applied and paired with a
///                       re-add, no unscripted rescale activity, and the
///                       pool ends fully active: a graceful migration
///                       sequence must leave conservation, routing and
///                       recovery (checks 1-4) intact and drain no worker
///                       out permanently.
/// Returns "" when all hold, else a diagnostic naming the violation.
std::string check_chaos_invariants(const ChaosSpec& spec, const ChaosReport& report);

}  // namespace repro::exp

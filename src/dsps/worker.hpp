#pragma once
// Simulated worker process state: machine, fault-injected health, and
// per-window accounting. Placement (hosted executors, liveness, scaling
// eligibility) lives in the shared runtime::TopologyState. Workers are
// the unit the predictive controller reasons about — a "misbehaving
// worker" is a worker whose slowdown, stalls, or co-located hog load
// degrade the tuples routed through it.
#include <cstdint>

#include "runtime/window_stats.hpp"
#include "sim/clock.hpp"

namespace repro::dsps {

struct Worker {
  std::size_t id = 0;
  std::size_t machine = 0;

  // Fault-injection state (hidden from the controller's feature view;
  // observable only through its effect on runtime statistics).
  double slowdown = 1.0;            ///< >= 1; multiplies service durations
  sim::SimTime stall_until = 0.0;   ///< new services delayed until then
  double drop_prob = 0.0;           ///< tuple drop probability on arrival

  // `incarnation` bumps on every crash: service completions capture it at
  // service start, so work begun before a crash is discarded instead of
  // completing on a process that no longer exists.
  std::uint64_t incarnation = 0;
  std::uint64_t crashes = 0;        ///< lifetime crash count (diagnostics)

  /// Per-window accounting (reset at each metrics sample).
  runtime::WorkerCounters window;

  void reset_window() { window.reset(); }
};

}  // namespace repro::dsps

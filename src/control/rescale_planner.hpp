#pragma once
// Elastic-scaling actuator (the ROADMAP's second actuator next to the
// split-ratio planner): RescalePlanner turns a target active-worker count
// into a deterministic rescale plan — which retired workers to
// re-activate, which active workers to drain out, and which executor
// migrations rebalance load onto freshly activated workers — and
// ElasticController sizes that target every control round from the same
// streaming DRNN forecasts the split-ratio controller consumes (or, in
// its reactive baseline mode, from observed queue depths), driving the
// ControlSurface elastic hooks (add_worker / migrate_tasks /
// retire_worker) against an SLO target with a modeled rescale cost.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "control/controller.hpp"
#include "control/predictor.hpp"
#include "dsps/scheduler.hpp"
#include "runtime/control_surface.hpp"

namespace repro::control {

/// Scaling bounds, SLO targets and sizing knobs. validate() is
/// fail-closed and names the offending field.
struct RescaleConfig {
  std::size_t min_workers = 1;  ///< never scale below this many active workers
  /// Upper bound on active workers; 0 = the whole worker pool.
  std::size_t max_workers = 0;
  /// SLO: max per-worker queue depth (tuples) the controller defends.
  double slo_queue_depth = 48.0;
  /// SLO: p99 complete latency (seconds) the controller defends.
  double slo_p99_latency = 1.0;
  /// Target utilization of the active workers: the proactive sizer
  /// provisions predicted-demand / headroom worker-seconds per second, so
  /// lower headroom means more slack capacity. In (0, 1].
  double headroom = 0.7;
  /// Minimum seconds between rescale decisions (migration pauses are not
  /// free; see ClusterConfig::rescale_pause).
  double cooldown = 6.0;
  /// Forecast horizon (seconds): the proactive sizer extrapolates the
  /// arrival-rate trend this far ahead, so capacity lands before the
  /// surge instead of after it.
  double lead_time = 4.0;
  /// Windows of history the rate-trend fit uses.
  std::size_t trend_windows = 8;

  void validate() const;
};

/// One deterministic rescale step. Retirement drains are not materialized
/// as moves here — the engine's retire_worker hook performs them through
/// the shared policy (see plan_retire_moves) so routing tables match
/// across backends.
struct RescalePlan {
  std::size_t target_active = 0;
  std::vector<std::size_t> activate;   ///< retired workers to re-activate
  std::vector<std::size_t> retire;     ///< active workers to drain out
  std::vector<dsps::TaskMove> moves;   ///< rebalance migrations (scale-out)
  bool empty() const { return activate.empty() && retire.empty() && moves.empty(); }
};

/// Deterministic pure planner: same pool state + same target -> the same
/// plan, no RNG. Scale-out activates the lowest-id retired workers and
/// rebalances by greedily moving the highest task id off the most-loaded
/// active worker onto the least-loaded one until the load spread is <= 1;
/// scale-in retires the highest-id active workers (LIFO, so an
/// out-then-in excursion returns to the original placement).
class RescalePlanner {
 public:
  explicit RescalePlanner(RescaleConfig config);

  const RescaleConfig& config() const { return cfg_; }

  /// Plan toward `target_active` active workers. `worker_tasks[w]` is the
  /// current executor placement (task ids in order), `alive`/`active` the
  /// pool state. The target is clamped to [min_workers, resolved max] and
  /// to the alive-worker count; the returned plan never strands an
  /// executor on a dead or retired worker.
  RescalePlan plan(const std::vector<std::vector<std::size_t>>& worker_tasks,
                   const std::vector<bool>& alive, const std::vector<bool>& active,
                   std::size_t target_active) const;

 private:
  RescaleConfig cfg_;
};

/// The migrations the engine's retire_worker hook performs when draining
/// `worker`: dsps::plan_crash_reassignment over the alive AND active
/// candidates (excluding `worker`). Exposed so property tests can verify
/// a full plan (activate -> moves -> retire drains) strands nothing.
/// Throws std::invalid_argument when no candidate host remains.
std::vector<dsps::TaskMove> plan_retire_moves(
    const std::vector<std::vector<std::size_t>>& worker_tasks, const std::vector<bool>& alive,
    const std::vector<bool>& active, std::size_t worker);

/// Fail-closed plan validation against a pool state: every referenced
/// worker exists, activations are alive, retirements are active, and
/// every migration destination is alive and in the post-activation active
/// set. Throws std::invalid_argument naming the offending field (e.g.
/// "RescalePlan.moves[2].to_worker: worker 5 is dead").
void validate_rescale_plan(const RescalePlan& plan,
                           const std::vector<std::vector<std::size_t>>& worker_tasks,
                           const std::vector<bool>& alive, const std::vector<bool>& active);

/// One applied (or attempted) rescale, kept for experiment introspection.
struct RescaleAction {
  double time = 0.0;
  std::size_t active_before = 0;
  std::size_t target = 0;
  std::vector<std::size_t> activated;
  std::vector<std::size_t> retired;
  std::size_t migrations = 0;      ///< rebalance moves issued this action
  double predicted_rate = 0.0;     ///< sizing input: arrival forecast (roots/s)
  double predicted_proc = 0.0;     ///< sizing input: mean proc-time forecast (s)
};

struct ElasticControllerConfig {
  RescaleConfig rescale{};
  double control_interval = 2.0;  ///< seconds between control rounds
  /// Reactive threshold baseline (the T6 comparison arm): size from the
  /// *observed* max queue depth instead of the forecast — scale out one
  /// worker after the SLO is already breached, scale in after
  /// `scale_in_patience` calm rounds.
  bool reactive = false;
  /// Consecutive rounds of below-target demand required before scaling
  /// in (both modes; scale-in is one worker per decision).
  std::size_t scale_in_patience = 3;
};

/// The elastic mode of the control framework: consumes the same streaming
/// window history (and, proactively, the same DRNN per-worker forecasts)
/// as the split-ratio controller, but actuates worker scale-out/in and
/// executor migration instead of routing ratios.
class ElasticController : public Controller {
 public:
  /// `predictor` may be null: the proactive sizer then falls back to the
  /// observed mean processing time (reactive mode never consults it).
  /// attach() (inherited) throws std::invalid_argument on a backend
  /// without elastic scaling.
  ElasticController(ElasticControllerConfig config,
                    std::shared_ptr<PerformancePredictor> predictor);

  const std::vector<RescaleAction>& actions() const { return actions_; }
  /// Applied rescales (actions that changed the active set).
  std::size_t rescales() const { return actions_.size(); }
  /// Active-worker integral (worker-seconds) accumulated over the run —
  /// the resource-cost metric of the T6 bench. Updated every control
  /// round; call after the final round (or after stop()) for the total.
  double worker_seconds() const { return worker_seconds_; }
  const ElasticControllerConfig& config() const { return cfg_; }

  std::string name() const override { return "elastic"; }
  /// Historical counting unit: applied rescales (rounds that changed the
  /// active worker set).
  ControllerTotals totals() const override;

 protected:
  void on_attach(runtime::ControlSurface& surface) override;
  void round(runtime::ControlSurface& surface) override;

 private:
  std::size_t decide_target(const runtime::ControlSurface& surface, std::size_t current,
                            double* predicted_rate, double* predicted_proc);

  ElasticControllerConfig cfg_;
  RescalePlanner planner_;
  std::shared_ptr<PerformancePredictor> predictor_;
  std::vector<std::size_t> proc_workers_;  ///< alive, active workers of a round
  std::vector<double> proc_predicted_;     ///< their forecasts, same order
  std::vector<RescaleAction> actions_;
  double last_change_time_ = 0.0;
  bool changed_once_ = false;
  std::size_t below_rounds_ = 0;
  double ws_last_time_ = 0.0;
  double worker_seconds_ = 0.0;
};

}  // namespace repro::control

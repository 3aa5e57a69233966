#pragma once
// The control plane's common spine plus the predictive control loop (the
// paper's headline system): every control interval, forecast each
// downstream task's worker performance with the attached predictor, flag
// misbehaving workers, plan new split ratios, and actuate them through
// the dynamic grouping — re-directing tuples to bypass misbehaving
// workers *before* queues build up.
//
// Every control arm (predictive, elastic, DRL, rate, oracle) derives from
// control::Controller, which owns the boilerplate the arms used to
// copy-paste: periodic-round registration on the ControlSurface, the
// window-history ingest cursor (each window observed exactly once, so a
// control round costs O(edges x workers x window) independent of run
// length), per-round wall-clock stamping, and totals reporting for the
// experiment harness.
//
// A predictive controller attaches to a whole topology: it discovers
// every dynamic-grouping edge from the runtime's control surface and
// keeps per-edge detector/planner state, while one shared predictor
// streams the window history incrementally.
#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "control/detector.hpp"
#include "control/planner.hpp"
#include "control/predictor.hpp"
#include "runtime/control_surface.hpp"

namespace repro::control {

/// Backend-agnostic run totals every controller reports — the experiment
/// harness fills its result rows from this instead of branching on the
/// concrete controller type. Wall-clock fields are excluded from golden
/// tables by the renderers.
struct ControllerTotals {
  std::size_t control_rounds = 0;  ///< kind-specific round count (see each arm)
  double mean_round_ms = 0.0;      ///< wall clock per reported round
  std::size_t rescales = 0;        ///< elastic arm: applied rescale actions
  double worker_seconds = 0.0;     ///< elastic arm: active-worker integral
};

/// Abstract base of every control arm. attach() wires the controller
/// into a runtime: the subclass hook on_attach() validates the topology
/// and captures actuator handles, then the base registers the
/// periodic control hook so the surface fires round() every
/// control_interval() seconds. control_round() (also callable manually)
/// wall-clock-times each round, accumulates totals, and hands the cost to
/// stamp_round() so arms can tag their per-round action records.
class Controller {
 public:
  virtual ~Controller() = default;

  /// Wire into a runtime (simulated or real-threads) and register the
  /// periodic control hook. Throws std::invalid_argument when the
  /// topology lacks what the arm needs (no dynamic edge to control, ...)
  /// — fail closed at attach, not mid-run. An actuator the backend does
  /// not implement throws std::logic_error when the arm first uses it.
  void attach(runtime::ControlSurface& surface);

  /// Run one control round manually (attach() registers this periodically).
  void control_round(runtime::ControlSurface& surface);

  /// Stable arm identifier ("predictive", "elastic", "drl", "rate", ...).
  virtual std::string name() const = 0;

  /// Control rounds executed since attach (including warmup rounds that
  /// decided nothing).
  std::size_t rounds() const { return rounds_; }
  /// Wall-clock seconds spent inside round() in total / per round.
  double total_round_seconds() const { return total_round_seconds_; }
  double mean_round_ms() const {
    return rounds_ == 0 ? 0.0 : 1e3 * total_round_seconds_ / static_cast<double>(rounds_);
  }

  /// Run totals for the experiment harness. The base reports executed
  /// rounds; arms override to report their historical counting unit (the
  /// predictive arm counts per-edge actions, the elastic arm applied
  /// rescales) so existing tables stay byte-identical.
  virtual ControllerTotals totals() const;

  double control_interval() const { return interval_; }

 protected:
  explicit Controller(double control_interval);

  /// Validate the topology and capture per-run state. Runs before the
  /// hook registration; throw to refuse the attach.
  virtual void on_attach(runtime::ControlSurface& surface) = 0;

  /// One control round: observe -> decide -> actuate. The base times it.
  virtual void round(runtime::ControlSurface& surface) = 0;

  /// Post-round latency stamp: `seconds` is the wall-clock cost of the
  /// round that just finished (the predictive arm stamps it onto the
  /// round's ControlActions). Default: no-op.
  virtual void stamp_round(double /*seconds*/) {}

  /// Restart the ingest cursor at the oldest retained window — call from
  /// on_attach so a re-attached controller streams the new run's history
  /// from its beginning.
  void reset_window_cursor(const runtime::ControlSurface& surface) {
    next_window_ = surface.window_history().first_index();
  }

  /// Invoke `fn` on every window the controller has not seen yet, oldest
  /// first, each exactly once (a bounded spine may have evicted very old
  /// unseen windows; those are skipped). Advances the cursor.
  template <typename Fn>
  void for_new_windows(const runtime::ControlSurface& surface, Fn&& fn) {
    const runtime::WindowHistory& wh = surface.window_history();
    for (std::size_t i = std::max(next_window_, wh.first_index()); i < wh.total(); ++i) {
      fn(wh.at_global(i));
    }
    next_window_ = wh.total();
  }

  /// The common "stream unseen windows into the shared predictor" round
  /// prologue; a null predictor still advances the cursor.
  void observe_new_windows(const runtime::ControlSurface& surface,
                           PerformancePredictor* predictor) {
    for_new_windows(surface, [predictor](const dsps::WindowSample& sample) {
      if (predictor != nullptr) predictor->observe(sample);
    });
  }

 private:
  double interval_;
  std::size_t next_window_ = 0;  ///< first global window index not yet observed
  std::size_t rounds_ = 0;
  double total_round_seconds_ = 0.0;
};

struct ControllerConfig {
  double control_interval = 2.0;  ///< seconds between control rounds
  DetectorConfig detector{};
  PlannerConfig planner{};
};

/// One control action, kept for experiment introspection.
struct ControlAction {
  double time = 0.0;
  std::string from;               ///< controlled edge (upstream component)
  std::string to;                 ///< controlled edge (downstream bolt)
  std::vector<double> predicted;  ///< per downstream task
  std::vector<bool> misbehaving;
  std::vector<double> ratios;     ///< empty when no update was issued
  /// Wall-clock cost of the control round that produced this action
  /// (shared by all edges of the round).
  double round_seconds = 0.0;
};

/// attach() discovers every dynamic-grouping connection and takes over
/// each edge's DynamicRatio; it throws std::invalid_argument when the
/// topology has no dynamic edge. The predictor must already be fitted
/// (pretrain on a profiling trace).
class PredictiveController : public Controller {
 public:
  PredictiveController(ControllerConfig config, std::shared_ptr<PerformancePredictor> predictor);

  const std::vector<ControlAction>& actions() const { return actions_; }
  PerformancePredictor& predictor() { return *predictor_; }
  const ControllerConfig& config() const { return cfg_; }
  /// Dynamic edges currently under control (set by attach).
  std::size_t edge_count() const { return edges_.size(); }

  std::string name() const override { return "predictive"; }
  /// Historical counting unit: one ControlAction per controlled edge per
  /// effective round (warmup rounds record nothing).
  ControllerTotals totals() const override;

 protected:
  void on_attach(runtime::ControlSurface& surface) override;
  void round(runtime::ControlSurface& surface) override;
  void stamp_round(double seconds) override;

 private:
  /// Per-edge control state: detector hysteresis and planner smoothing are
  /// independent across edges; the predictor is shared.
  struct Edge {
    std::string from;
    std::string to;
    std::shared_ptr<dsps::DynamicRatio> ratio;
    MisbehaviorDetector detector;
    SplitRatioPlanner planner;
    std::vector<std::size_t> task_workers;  ///< worker of each downstream task
  };

  ControllerConfig cfg_;
  std::shared_ptr<PerformancePredictor> predictor_;
  std::vector<Edge> edges_;
  std::vector<std::size_t> round_workers_;  ///< every edge's task_workers, in edge order
  std::vector<double> round_predicted_;     ///< one forecast per round_workers_ entry
  std::vector<ControlAction> actions_;
  std::size_t first_action_ = 0;  ///< actions appended by the round in flight
};

/// Fault-oracle controller for the T3 upper bound: reads the injected
/// worker slowdowns directly instead of predicting them (requires a
/// backend with fault injection). Deliberately absent from
/// make_controller — it cheats, so it is not a deployable arm. It
/// controls the topology's one dynamic-grouping edge: attach() throws
/// std::invalid_argument when there is not exactly one.
class OracleController : public Controller {
 public:
  explicit OracleController(PlannerConfig planner = {}, double control_interval = 1.0);

  std::string name() const override { return "oracle"; }

 protected:
  void on_attach(runtime::ControlSurface& surface) override;
  void round(runtime::ControlSurface& surface) override;

 private:
  SplitRatioPlanner planner_;
  std::shared_ptr<dsps::DynamicRatio> ratio_;
  std::vector<std::size_t> task_workers_;
};

}  // namespace repro::control

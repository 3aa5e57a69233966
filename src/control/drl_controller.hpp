#pragma once
// Model-free DRL control arm (the bake-off's learning baseline, after the
// model-free-control-for-DSDPS line of work): a DQN over the same
// multilevel WindowSample statistics the predictive arm consumes. State
// is the controlled edge's per-worker queue/latency/rate feature rows
// from the StreamingFeatureExtractor (running-standardized); actions are
// discretized routing moves on the edge's DynamicRatio (keep current,
// uniform, down-weight one downstream task); the reward is SLO-weighted
// throughput minus loss. The Q-network is a two-layer MLP from the nn/
// library trained by experience replay with a periodically synced target
// network and seeded epsilon-greedy exploration — every draw comes from
// one Pcg32 stream, so a fixed seed yields an identical policy.
//
// Unlike the predictive arm it needs no pretrained model: train it by
// running deterministic sim episodes with set_training(true) (the
// scenario harness does this), then freeze with set_training(false) for
// the evaluation run.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "control/controller.hpp"
#include "control/features.hpp"
#include "nn/dense.hpp"
#include "nn/optimizer.hpp"
#include "tensor/matrix.hpp"

namespace repro::control {

/// DQN hyperparameters. validate() is fail-closed and names the
/// offending field.
struct DrlControllerConfig {
  double control_interval = 2.0;  ///< seconds between control rounds
  std::size_t hidden = 32;        ///< Q-network hidden width
  double gamma = 0.9;             ///< discount
  double lr = 3e-3;               ///< Adam learning rate
  std::size_t replay_capacity = 2048;
  std::size_t batch_size = 32;    ///< replay minibatch
  std::size_t min_replay = 48;    ///< transitions required before training
  std::size_t target_sync = 25;   ///< train steps between target-net syncs
  double epsilon_start = 1.0;     ///< exploration anneal (training mode)
  double epsilon_end = 0.05;
  double epsilon_decay_steps = 300.0;  ///< selections to anneal over
  double grad_clip = 5.0;
  /// Ratio share a down-weighted task keeps, as a fraction of its uniform
  /// share (the bypass move), in (0, 1).
  double down_weight = 0.25;
  /// Reward shaping: r = acked/roots - loss_weight * (failed+shed)/roots
  /// - latency_weight * max(0, p99/slo_p99 - 1), over the windows since
  /// the previous decision.
  double slo_p99 = 1.0;  ///< seconds
  double loss_weight = 4.0;
  double latency_weight = 1.0;
  std::uint64_t seed = 7;

  void validate() const;
};

/// One applied decision, kept for experiment introspection.
struct DrlAction {
  double time = 0.0;
  std::size_t action = 0;  ///< Q-head index (see action_name)
  bool explored = false;   ///< epsilon branch (training mode only)
  double reward = 0.0;     ///< reward credited to the *previous* action
};

class DrlController : public Controller {
 public:
  explicit DrlController(DrlControllerConfig config = {});
  ~DrlController();

  /// attach() controls the topology's first dynamic-grouping edge and
  /// throws std::invalid_argument when the topology has none.

  /// Training mode: explore (epsilon-greedy), record transitions, and run
  /// replay updates each round. Off = frozen greedy policy (the
  /// evaluation arm). Default on.
  void set_training(bool on) { training_ = on; }
  bool training() const { return training_; }
  /// Close the current episode: the next round starts a fresh
  /// state/action chain (transitions never bridge episodes).
  void end_episode();

  const std::vector<DrlAction>& decisions() const { return decisions_; }
  std::size_t replay_size() const { return replay_.size(); }
  std::size_t train_steps() const { return train_steps_; }
  std::size_t selections() const { return selections_; }
  /// Current exploration rate (training mode anneal).
  double epsilon() const;
  /// Q-head count after attach: 2 + downstream tasks.
  std::size_t action_count() const { return action_count_; }
  /// Stable label of a Q-head ("keep", "uniform", "bypass-2", ...).
  std::string action_name(std::size_t action) const;
  const DrlControllerConfig& config() const { return cfg_; }

  std::string name() const override { return "drl"; }

 protected:
  void on_attach(runtime::ControlSurface& surface) override;
  void round(runtime::ControlSurface& surface) override;

 private:
  struct Transition {
    std::vector<double> state;
    std::vector<double> next_state;
    std::size_t action = 0;
    double reward = 0.0;
  };

  void build_network();
  void sync_target();
  /// Latest standardized per-worker feature rows -> `out` (state_dim_).
  void build_state(std::vector<double>& out);
  std::size_t select_action(const std::vector<double>& state, bool* explored);
  double take_reward();
  void apply_action(std::size_t action);
  void train_step();
  /// Forward `rows` states through (l1, l2) -> q (one row per state).
  void forward_q(nn::Dense& l1, nn::Dense& l2, const tensor::Matrix& x, tensor::Matrix& q,
                 bool training_pass);

  DrlControllerConfig cfg_;
  bool training_ = true;
  common::Pcg32 rng_;

  // Controlled edge (captured at attach).
  std::string from_;
  std::string to_;
  std::shared_ptr<dsps::DynamicRatio> ratio_;
  std::vector<std::size_t> task_workers_;

  // Feature pipeline.
  std::unique_ptr<StreamingFeatureExtractor> extractor_;
  std::size_t state_dim_ = 0;
  std::size_t action_count_ = 0;
  /// Running per-dimension standardization (Welford; frozen in eval).
  std::vector<double> feat_mean_, feat_m2_;
  std::size_t feat_count_ = 0;

  // Q-network + target network (built at first attach).
  std::unique_ptr<nn::Dense> l1_, l2_;
  std::unique_ptr<nn::Dense> t1_, t2_;
  std::unique_ptr<nn::Adam> opt_;
  std::vector<nn::ParamRef> params_;

  // Replay + bookkeeping.
  std::vector<Transition> replay_;
  std::size_t replay_head_ = 0;
  std::size_t selections_ = 0;
  std::size_t train_steps_ = 0;
  std::vector<DrlAction> decisions_;

  // Pending reward accumulators (windows since the previous decision).
  std::uint64_t pend_acked_ = 0, pend_failed_ = 0, pend_shed_ = 0, pend_roots_ = 0;
  double pend_p99_ = 0.0;

  bool have_prev_ = false;
  std::vector<double> prev_state_;
  std::size_t prev_action_ = 0;

  // Reused workspaces.
  std::vector<double> state_ws_;
  tensor::Matrix row_ws_;                       ///< one extractor feature row
  tensor::Matrix x1_ws_, q1_ws_, h_ws_;         ///< greedy selection
  tensor::Matrix xb_ws_, qb_ws_, xn_ws_, qn_ws_;  ///< replay minibatch
  tensor::Matrix dq_ws_, dh_ws_, dx_ws_;        ///< backward pass
  std::vector<double> ratios_ws_;
};

}  // namespace repro::control

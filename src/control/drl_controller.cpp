#include "control/drl_controller.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/logging.hpp"

namespace repro::control {

void DrlControllerConfig::validate() const {
  if (!(control_interval > 0.0)) {
    throw std::invalid_argument("DrlControllerConfig.control_interval: must be > 0");
  }
  if (hidden == 0) throw std::invalid_argument("DrlControllerConfig.hidden: must be >= 1");
  if (!(gamma >= 0.0) || !(gamma < 1.0)) {
    throw std::invalid_argument("DrlControllerConfig.gamma: must be in [0, 1)");
  }
  if (!(lr > 0.0)) throw std::invalid_argument("DrlControllerConfig.lr: must be > 0");
  if (batch_size == 0) {
    throw std::invalid_argument("DrlControllerConfig.batch_size: must be >= 1");
  }
  if (replay_capacity < batch_size) {
    throw std::invalid_argument("DrlControllerConfig.replay_capacity: " +
                                std::to_string(replay_capacity) + " is below batch_size " +
                                std::to_string(batch_size));
  }
  if (min_replay < batch_size) {
    throw std::invalid_argument("DrlControllerConfig.min_replay: " + std::to_string(min_replay) +
                                " is below batch_size " + std::to_string(batch_size));
  }
  if (target_sync == 0) {
    throw std::invalid_argument("DrlControllerConfig.target_sync: must be >= 1");
  }
  if (!(epsilon_start >= 0.0) || !(epsilon_start <= 1.0)) {
    throw std::invalid_argument("DrlControllerConfig.epsilon_start: must be in [0, 1]");
  }
  if (!(epsilon_end >= 0.0) || !(epsilon_end <= epsilon_start)) {
    throw std::invalid_argument(
        "DrlControllerConfig.epsilon_end: must be in [0, epsilon_start]");
  }
  if (!(epsilon_decay_steps > 0.0)) {
    throw std::invalid_argument("DrlControllerConfig.epsilon_decay_steps: must be > 0");
  }
  if (!(grad_clip > 0.0)) {
    throw std::invalid_argument("DrlControllerConfig.grad_clip: must be > 0");
  }
  if (!(down_weight > 0.0) || !(down_weight < 1.0)) {
    throw std::invalid_argument("DrlControllerConfig.down_weight: must be in (0, 1)");
  }
  if (!(slo_p99 > 0.0)) throw std::invalid_argument("DrlControllerConfig.slo_p99: must be > 0");
  if (!(loss_weight >= 0.0)) {
    throw std::invalid_argument("DrlControllerConfig.loss_weight: must be >= 0");
  }
  if (!(latency_weight >= 0.0)) {
    throw std::invalid_argument("DrlControllerConfig.latency_weight: must be >= 0");
  }
}

DrlController::DrlController(DrlControllerConfig config)
    : Controller(config.control_interval), cfg_(config), rng_(config.seed, 0x7d) {
  cfg_.validate();
}

DrlController::~DrlController() = default;

void DrlController::on_attach(runtime::ControlSurface& surface) {
  std::vector<runtime::DynamicEdge> edges = surface.dynamic_edges();
  if (edges.empty()) {
    throw std::invalid_argument("DrlController::attach: topology has no dynamic-grouping "
                                "edge to control");
  }
  from_ = edges.front().from;
  to_ = edges.front().to;
  ratio_ = surface.dynamic_ratio(from_, to_);
  auto [lo, hi] = surface.tasks_of(to_);
  task_workers_.clear();
  task_workers_.reserve(hi - lo);
  for (std::size_t t = lo; t < hi; ++t) task_workers_.push_back(surface.worker_of_task(t));

  const FeatureConfig fcfg{};
  const std::size_t dim = feature_dim(fcfg);
  const std::size_t sdim = task_workers_.size() * dim;
  const std::size_t acts = 2 + task_workers_.size();
  if (!l1_) {
    state_dim_ = sdim;
    action_count_ = acts;
    feat_mean_.assign(dim, 0.0);
    feat_m2_.assign(dim, 0.0);
    feat_count_ = 0;
    extractor_ = std::make_unique<StreamingFeatureExtractor>(fcfg, 2);
    build_network();
  } else if (state_dim_ != sdim || action_count_ != acts) {
    // Re-attach keeps the learned policy, so the decision space must match.
    throw std::invalid_argument(
        "DrlController::attach: topology shape changed across attaches (state " +
        std::to_string(state_dim_) + " -> " + std::to_string(sdim) + ", actions " +
        std::to_string(action_count_) + " -> " + std::to_string(acts) + ")");
  }
  extractor_->reset();
  end_episode();
  reset_window_cursor(surface);
}

void DrlController::end_episode() {
  have_prev_ = false;
  pend_acked_ = pend_failed_ = pend_shed_ = pend_roots_ = 0;
  pend_p99_ = 0.0;
}

double DrlController::epsilon() const {
  const double frac =
      std::max(0.0, 1.0 - static_cast<double>(selections_) / cfg_.epsilon_decay_steps);
  return cfg_.epsilon_end + (cfg_.epsilon_start - cfg_.epsilon_end) * frac;
}

std::string DrlController::action_name(std::size_t action) const {
  if (action >= action_count_) {
    throw std::invalid_argument("DrlController::action_name: no action " +
                                std::to_string(action));
  }
  if (action == 0) return "keep";
  if (action == 1) return "uniform";
  return "bypass-" + std::to_string(action - 2);
}

void DrlController::build_network() {
  // Separate init stream from the exploration stream so adding an
  // exploration draw never reshuffles the weights.
  common::Pcg32 init_rng(cfg_.seed, 0x7e);
  l1_ = std::make_unique<nn::Dense>(state_dim_, cfg_.hidden, nn::Activation::kTanh, init_rng);
  l2_ = std::make_unique<nn::Dense>(cfg_.hidden, action_count_, nn::Activation::kIdentity,
                                    init_rng);
  t1_ = std::make_unique<nn::Dense>(state_dim_, cfg_.hidden, nn::Activation::kTanh, init_rng);
  t2_ = std::make_unique<nn::Dense>(cfg_.hidden, action_count_, nn::Activation::kIdentity,
                                    init_rng);
  sync_target();
  opt_ = std::make_unique<nn::Adam>(cfg_.lr);
  params_.clear();
  for (const auto& p : l1_->param_refs()) params_.push_back(p);
  for (const auto& p : l2_->param_refs()) params_.push_back(p);
  l1_->zero_grads();
  l2_->zero_grads();
}

void DrlController::sync_target() {
  const auto& s1 = l1_->param_refs();
  const auto& d1 = t1_->param_refs();
  for (std::size_t i = 0; i < s1.size(); ++i) d1[i].value->copy_from(*s1[i].value);
  const auto& s2 = l2_->param_refs();
  const auto& d2 = t2_->param_refs();
  for (std::size_t i = 0; i < s2.size(); ++i) d2[i].value->copy_from(*s2[i].value);
}

void DrlController::forward_q(nn::Dense& l1, nn::Dense& l2, const tensor::Matrix& x,
                              tensor::Matrix& q, bool training_pass) {
  l1.forward_matrix_into(x, h_ws_, training_pass);
  l2.forward_matrix_into(h_ws_, q, training_pass);
}

void DrlController::build_state(std::vector<double>& out) {
  const std::size_t dim = feat_mean_.size();
  out.assign(state_dim_, 0.0);
  for (std::size_t j = 0; j < task_workers_.size(); ++j) {
    const std::size_t w = task_workers_[j];
    if (extractor_->rows_of(w) == 0) continue;  // zero-padded until first row
    extractor_->sequence_into(w, 1, row_ws_);
    const double* r = row_ws_.data();
    if (training_) {
      // Welford running standardization; frozen during evaluation so a
      // trained policy is a pure function of the window history.
      ++feat_count_;
      for (std::size_t d = 0; d < dim; ++d) {
        const double delta = r[d] - feat_mean_[d];
        feat_mean_[d] += delta / static_cast<double>(feat_count_);
        feat_m2_[d] += delta * (r[d] - feat_mean_[d]);
      }
    }
    const double n = static_cast<double>(std::max<std::size_t>(feat_count_, 1));
    for (std::size_t d = 0; d < dim; ++d) {
      const double var = feat_m2_[d] / n;
      out[j * dim + d] = (r[d] - feat_mean_[d]) / std::sqrt(var + 1e-6);
    }
  }
}

double DrlController::take_reward() {
  const double roots = static_cast<double>(std::max<std::uint64_t>(pend_roots_, 1));
  const double goodput = static_cast<double>(pend_acked_) / roots;
  const double loss = static_cast<double>(pend_failed_ + pend_shed_) / roots;
  const double slo_excess = std::max(0.0, pend_p99_ / cfg_.slo_p99 - 1.0);
  pend_acked_ = pend_failed_ = pend_shed_ = pend_roots_ = 0;
  pend_p99_ = 0.0;
  return std::clamp(goodput - cfg_.loss_weight * loss - cfg_.latency_weight * slo_excess, -2.0,
                    2.0);
}

std::size_t DrlController::select_action(const std::vector<double>& state, bool* explored) {
  *explored = false;
  if (training_) {
    const double eps = epsilon();
    ++selections_;
    if (rng_.next_double() < eps) {
      *explored = true;
      return rng_.bounded(static_cast<std::uint32_t>(action_count_));
    }
  }
  x1_ws_.reshape(1, state_dim_);
  std::copy(state.begin(), state.end(), x1_ws_.data());
  forward_q(*l1_, *l2_, x1_ws_, q1_ws_, /*training_pass=*/false);
  const double* q = q1_ws_.data();
  std::size_t best = 0;
  for (std::size_t a = 1; a < action_count_; ++a) {
    if (q[a] > q[best]) best = a;
  }
  return best;
}

void DrlController::apply_action(std::size_t action) {
  const std::size_t w_count = task_workers_.size();
  if (action == 0) return;  // keep current routing
  if (action == 1) {
    ratios_ws_.assign(w_count, 1.0 / static_cast<double>(w_count));
    ratio_->set_ratios(ratios_ws_);
    return;
  }
  // Bypass: shrink one downstream slot's share, renormalized.
  const std::size_t j = action - 2;
  ratios_ws_.assign(w_count, 1.0);
  ratios_ws_[j] = cfg_.down_weight;
  const double sum = static_cast<double>(w_count - 1) + cfg_.down_weight;
  for (double& r : ratios_ws_) r /= sum;
  ratio_->set_ratios(ratios_ws_);
}

void DrlController::train_step() {
  const std::size_t n = replay_.size();
  const std::size_t B = cfg_.batch_size;
  const std::size_t S = state_dim_;
  const std::size_t A = action_count_;

  xb_ws_.reshape(B, S);
  xn_ws_.reshape(B, S);
  std::vector<std::size_t> picked(B);
  for (std::size_t i = 0; i < B; ++i) {
    picked[i] = rng_.bounded(static_cast<std::uint32_t>(n));
    const Transition& tr = replay_[picked[i]];
    std::copy(tr.state.begin(), tr.state.end(), xb_ws_.row_ptr(i));
    std::copy(tr.next_state.begin(), tr.next_state.end(), xn_ws_.row_ptr(i));
  }

  // Bootstrap targets from the frozen target network.
  forward_q(*t1_, *t2_, xn_ws_, qn_ws_, /*training_pass=*/false);
  forward_q(*l1_, *l2_, xb_ws_, qb_ws_, /*training_pass=*/true);

  dq_ws_.reshape(B, A);
  dq_ws_.fill(0.0);
  for (std::size_t i = 0; i < B; ++i) {
    const Transition& tr = replay_[picked[i]];
    const double* qn = qn_ws_.row_ptr(i);
    double best = qn[0];
    for (std::size_t a = 1; a < A; ++a) best = std::max(best, qn[a]);
    const double y = tr.reward + cfg_.gamma * best;
    const double q_sa = qb_ws_(i, tr.action);
    dq_ws_(i, tr.action) = 2.0 * (q_sa - y) / static_cast<double>(B);
  }

  l2_->backward_matrix_into(dq_ws_, dh_ws_);
  l1_->backward_matrix_into(dh_ws_, dx_ws_);
  nn::clip_grad_norm(params_, cfg_.grad_clip);
  opt_->step(params_);
  l1_->zero_grads();
  l2_->zero_grads();

  ++train_steps_;
  if (train_steps_ % cfg_.target_sync == 0) sync_target();
}

void DrlController::round(runtime::ControlSurface& surface) {
  std::size_t seen = 0;
  for_new_windows(surface, [&](const dsps::WindowSample& w) {
    ++seen;
    extractor_->observe(w);
    pend_acked_ += w.topology.acked;
    pend_failed_ += w.topology.failed;
    pend_shed_ += w.topology.dropped_overflow;
    pend_roots_ += w.topology.roots_emitted;
    pend_p99_ = std::max(pend_p99_, w.topology.p99_complete_latency);
  });
  if (seen == 0) return;  // decide only on fresh evidence

  build_state(state_ws_);

  double reward = 0.0;
  if (have_prev_) {
    reward = take_reward();
    if (training_) {
      Transition tr;
      tr.state = prev_state_;
      tr.next_state = state_ws_;
      tr.action = prev_action_;
      tr.reward = reward;
      if (replay_.size() < cfg_.replay_capacity) {
        replay_.push_back(std::move(tr));
      } else {
        replay_[replay_head_] = std::move(tr);
        replay_head_ = (replay_head_ + 1) % cfg_.replay_capacity;
      }
      if (replay_.size() >= cfg_.min_replay) train_step();
    }
  } else {
    take_reward();  // pre-first-decision windows earn no credit
  }

  bool explored = false;
  const std::size_t action = select_action(state_ws_, &explored);
  apply_action(action);
  prev_state_ = state_ws_;
  prev_action_ = action;
  have_prev_ = true;

  DrlAction d;
  d.time = surface.now_seconds();
  d.action = action;
  d.explored = explored;
  d.reward = reward;
  decisions_.push_back(d);
  LOG_DEBUG("drl: action ", action_name(action), (explored ? " (explore)" : " (greedy)"),
            " reward ", reward, " at t=", d.time);
}

}  // namespace repro::control

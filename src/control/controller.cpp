#include "control/controller.hpp"

#include <chrono>
#include <stdexcept>

#include "common/logging.hpp"

namespace repro::control {

Controller::Controller(double control_interval) : interval_(control_interval) {
  if (!(interval_ > 0.0)) {
    throw std::invalid_argument("Controller: control_interval must be > 0");
  }
}

void Controller::attach(runtime::ControlSurface& surface) {
  on_attach(surface);
  // A fresh attach starts a fresh round count: totals() describes the
  // attached run, not the controller's lifetime (the DRL arm re-attaches
  // across training episodes before its evaluation run).
  rounds_ = 0;
  total_round_seconds_ = 0.0;
  surface.set_control_hook(interval_,
                           [this](runtime::ControlSurface& s) { control_round(s); });
}

void Controller::control_round(runtime::ControlSurface& surface) {
  auto t0 = std::chrono::steady_clock::now();
  round(surface);
  double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  ++rounds_;
  total_round_seconds_ += secs;
  stamp_round(secs);
}

ControllerTotals Controller::totals() const {
  ControllerTotals t;
  t.control_rounds = rounds_;
  t.mean_round_ms = mean_round_ms();
  return t;
}

PredictiveController::PredictiveController(ControllerConfig config,
                                           std::shared_ptr<PerformancePredictor> predictor)
    : Controller(config.control_interval), cfg_(config), predictor_(std::move(predictor)) {
  if (!predictor_) throw std::invalid_argument("PredictiveController: null predictor");
}

void PredictiveController::on_attach(runtime::ControlSurface& surface) {
  std::vector<runtime::DynamicEdge> edges = surface.dynamic_edges();
  if (edges.empty()) {
    throw std::invalid_argument("PredictiveController::attach: topology has no dynamic-grouping "
                                "edge to control");
  }
  edges_.clear();
  round_workers_.clear();
  for (const runtime::DynamicEdge& e : edges) {
    Edge edge{e.from,
              e.to,
              surface.dynamic_ratio(e.from, e.to),
              MisbehaviorDetector(cfg_.detector),
              SplitRatioPlanner(cfg_.planner),
              {}};
    auto [lo, hi] = surface.tasks_of(e.to);
    edge.task_workers.reserve(hi - lo);
    for (std::size_t t = lo; t < hi; ++t) edge.task_workers.push_back(surface.worker_of_task(t));
    round_workers_.insert(round_workers_.end(), edge.task_workers.begin(),
                          edge.task_workers.end());
    edges_.push_back(std::move(edge));
  }
  // Stream from the oldest retained window of this surface.
  predictor_->reset_stream();
  reset_window_cursor(surface);
}

void PredictiveController::round(runtime::ControlSurface& surface) {
  first_action_ = actions_.size();
  observe_new_windows(surface, predictor_.get());

  if (predictor_->observed_windows() < predictor_->min_history()) return;

  // One predictor call for the whole round, sliced back per edge.
  predictor_->predict_workers(round_workers_, round_predicted_);
  const double* next = round_predicted_.data();
  for (Edge& edge : edges_) {
    ControlAction action;
    action.time = surface.now_seconds();
    action.from = edge.from;
    action.to = edge.to;
    action.predicted.assign(next, next + edge.task_workers.size());
    next += edge.task_workers.size();
    action.misbehaving = edge.detector.update(action.predicted);
    action.ratios = edge.planner.plan(action.predicted, action.misbehaving);
    if (!action.ratios.empty()) {
      edge.ratio->set_ratios(action.ratios);
      LOG_DEBUG("controller: new ratios on ", edge.from, " -> ", edge.to,
                " at t=", action.time);
    }
    actions_.push_back(std::move(action));
  }
}

void PredictiveController::stamp_round(double seconds) {
  for (std::size_t i = first_action_; i < actions_.size(); ++i) {
    actions_[i].round_seconds = seconds;
  }
}

ControllerTotals PredictiveController::totals() const {
  ControllerTotals t;
  if (actions_.empty()) return t;
  double sum = 0.0;
  for (const auto& a : actions_) sum += a.round_seconds;
  t.control_rounds = actions_.size();
  t.mean_round_ms = 1e3 * sum / static_cast<double>(actions_.size());
  return t;
}

OracleController::OracleController(PlannerConfig planner, double control_interval)
    : Controller(control_interval), planner_(planner) {}

void OracleController::on_attach(runtime::ControlSurface& surface) {
  std::vector<runtime::DynamicEdge> edges = surface.dynamic_edges();
  if (edges.size() != 1) {
    throw std::invalid_argument(
        "OracleController::attach: the oracle controls exactly one dynamic-grouping edge; the "
        "topology has " +
        std::to_string(edges.size()));
  }
  ratio_ = surface.dynamic_ratio(edges[0].from, edges[0].to);
  auto [lo, hi] = surface.tasks_of(edges[0].to);
  task_workers_.clear();
  for (std::size_t t = lo; t < hi; ++t) task_workers_.push_back(surface.worker_of_task(t));
}

void OracleController::round(runtime::ControlSurface& surface) {
  std::vector<double> predicted;
  std::vector<bool> misbehaving;
  predicted.reserve(task_workers_.size());
  for (std::size_t w : task_workers_) {
    double slow = surface.worker_slowdown(w);
    double drop = surface.worker_drop_prob(w);
    predicted.push_back(slow);
    misbehaving.push_back(slow > 1.3 || drop > 0.0);
  }
  std::vector<double> ratios = planner_.plan(predicted, misbehaving);
  if (!ratios.empty()) ratio_->set_ratios(ratios);
}

}  // namespace repro::control

#include "control/rate_controller.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/logging.hpp"

namespace repro::control {

void RateControllerConfig::validate() const {
  if (!(control_interval > 0.0)) {
    throw std::invalid_argument("RateControllerConfig.control_interval: must be > 0");
  }
  if (min_pending == 0) {
    throw std::invalid_argument("RateControllerConfig.min_pending: must be >= 1");
  }
  if (max_pending != 0 && max_pending < min_pending) {
    throw std::invalid_argument("RateControllerConfig.max_pending: " +
                                std::to_string(max_pending) + " is below min_pending " +
                                std::to_string(min_pending));
  }
  if (additive_step == 0) {
    throw std::invalid_argument("RateControllerConfig.additive_step: must be >= 1");
  }
  if (!(decrease_factor > 0.0) || !(decrease_factor < 1.0)) {
    throw std::invalid_argument("RateControllerConfig.decrease_factor: must be in (0, 1)");
  }
  if (!(slo_p99 > 0.0)) {
    throw std::invalid_argument("RateControllerConfig.slo_p99: must be > 0");
  }
  if (!(slo_queue_depth > 0.0)) {
    throw std::invalid_argument("RateControllerConfig.slo_queue_depth: must be > 0");
  }
}

RateController::RateController(RateControllerConfig config)
    : Controller(config.control_interval), cfg_(config) {
  cfg_.validate();
}

void RateController::on_attach(runtime::ControlSurface& surface) {
  cap_ = surface.max_spout_pending();
  ceiling_ = cfg_.max_pending != 0 ? cfg_.max_pending : cap_;
  floor_ = std::min(cfg_.min_pending, ceiling_);
  reset_window_cursor(surface);
}

void RateController::round(runtime::ControlSurface& surface) {
  bool congested = false;
  std::size_t seen = 0;
  for_new_windows(surface, [&](const dsps::WindowSample& w) {
    ++seen;
    if (w.topology.failed > 0 || w.topology.dropped_overflow > 0) congested = true;
    if (w.topology.p99_complete_latency > cfg_.slo_p99) congested = true;
    for (const auto& t : w.tasks) {
      if (static_cast<double>(t.queue_len) > cfg_.slo_queue_depth) congested = true;
    }
  });
  if (seen == 0) return;  // no new evidence, keep the cap

  std::size_t next = cap_;
  if (congested) {
    next = std::max(floor_, static_cast<std::size_t>(
                                std::floor(static_cast<double>(cap_) * cfg_.decrease_factor)));
  } else {
    next = std::min(ceiling_, cap_ + cfg_.additive_step);
  }
  if (next == cap_) return;

  surface.set_max_spout_pending(next);
  RateAction action;
  action.time = surface.now_seconds();
  action.cap_before = cap_;
  action.cap_after = next;
  action.congested = congested;
  actions_.push_back(action);
  LOG_DEBUG("rate: spout cap ", cap_, " -> ", next, (congested ? " (congested)" : " (probe)"),
            " at t=", action.time);
  cap_ = next;
}

}  // namespace repro::control

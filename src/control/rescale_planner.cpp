#include "control/rescale_planner.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/logging.hpp"

namespace repro::control {

void RescaleConfig::validate() const {
  if (min_workers == 0) {
    throw std::invalid_argument("RescaleConfig.min_workers: must be >= 1");
  }
  if (max_workers != 0 && max_workers < min_workers) {
    throw std::invalid_argument("RescaleConfig.max_workers: " + std::to_string(max_workers) +
                                " is below min_workers " + std::to_string(min_workers));
  }
  if (slo_queue_depth <= 0.0) {
    throw std::invalid_argument("RescaleConfig.slo_queue_depth: must be > 0");
  }
  if (slo_p99_latency <= 0.0) {
    throw std::invalid_argument("RescaleConfig.slo_p99_latency: must be > 0");
  }
  if (headroom <= 0.0 || headroom > 1.0) {
    throw std::invalid_argument("RescaleConfig.headroom: must be in (0, 1]");
  }
  if (cooldown < 0.0) throw std::invalid_argument("RescaleConfig.cooldown: must be >= 0");
  if (lead_time < 0.0) throw std::invalid_argument("RescaleConfig.lead_time: must be >= 0");
  if (trend_windows < 2) {
    throw std::invalid_argument("RescaleConfig.trend_windows: must be >= 2");
  }
}

RescalePlanner::RescalePlanner(RescaleConfig config) : cfg_(config) { cfg_.validate(); }

RescalePlan RescalePlanner::plan(const std::vector<std::vector<std::size_t>>& worker_tasks,
                                 const std::vector<bool>& alive, const std::vector<bool>& active,
                                 std::size_t target_active) const {
  const std::size_t pool = alive.size();
  std::size_t alive_count = 0;
  std::size_t current = 0;
  for (std::size_t w = 0; w < pool; ++w) {
    if (alive[w]) ++alive_count;
    if (alive[w] && active[w]) ++current;
  }
  std::size_t max_active = cfg_.max_workers == 0 ? pool : std::min(cfg_.max_workers, pool);
  max_active = std::min(max_active, alive_count);
  std::size_t min_active = std::min(cfg_.min_workers, max_active);
  RescalePlan out;
  out.target_active = std::clamp(target_active, min_active, max_active);

  if (out.target_active > current) {
    // Scale out: activate the lowest-id retired alive workers first, then
    // rebalance executors onto them (a fresh activation hosts nothing, so
    // without moves the capacity would be idle).
    std::vector<std::vector<std::size_t>> tasks = worker_tasks;
    std::vector<bool> hosts = active;
    std::size_t n = current;
    for (std::size_t w = 0; w < pool && n < out.target_active; ++w) {
      if (alive[w] && !hosts[w]) {
        out.activate.push_back(w);
        hosts[w] = true;
        ++n;
      }
    }
    // Greedy spread: move the highest task id off the most-loaded active
    // worker (tie: lowest id) onto the least-loaded one (tie: lowest id)
    // until the load spread is <= 1. Deterministic and minimal — a
    // balanced pool plans no moves.
    for (;;) {
      std::size_t max_w = pool, min_w = pool;
      for (std::size_t w = 0; w < pool; ++w) {
        if (!alive[w] || !hosts[w]) continue;
        if (max_w == pool || tasks[w].size() > tasks[max_w].size()) max_w = w;
        if (min_w == pool || tasks[w].size() < tasks[min_w].size()) min_w = w;
      }
      if (max_w == pool || tasks[max_w].size() <= tasks[min_w].size() + 1) break;
      std::size_t task = tasks[max_w].back();
      tasks[max_w].pop_back();
      tasks[min_w].push_back(task);
      out.moves.push_back({task, max_w, min_w});
    }
  } else if (out.target_active < current) {
    // Scale in: retire the highest-id active workers (LIFO order, so an
    // out-then-in excursion returns to the original placement). The
    // drains themselves run inside the engine's retire hook.
    std::size_t n = current;
    for (std::size_t w = pool; w-- > 0 && n > out.target_active;) {
      if (alive[w] && active[w]) {
        out.retire.push_back(w);
        --n;
      }
    }
  }
  return out;
}

std::vector<dsps::TaskMove> plan_retire_moves(
    const std::vector<std::vector<std::size_t>>& worker_tasks, const std::vector<bool>& alive,
    const std::vector<bool>& active, std::size_t worker) {
  std::vector<bool> hosts(alive.size(), false);
  for (std::size_t w = 0; w < alive.size(); ++w) hosts[w] = alive[w] && active[w] && w != worker;
  return dsps::plan_crash_reassignment(worker_tasks, worker, hosts);
}

void validate_rescale_plan(const RescalePlan& plan,
                           const std::vector<std::vector<std::size_t>>& worker_tasks,
                           const std::vector<bool>& alive, const std::vector<bool>& active) {
  const std::size_t pool = alive.size();
  std::size_t task_count = 0;
  for (const auto& tasks : worker_tasks) task_count += tasks.size();
  std::vector<bool> hosts = active;  // post-activation active set
  for (std::size_t i = 0; i < plan.activate.size(); ++i) {
    const std::string field = "RescalePlan.activate[" + std::to_string(i) + "]";
    std::size_t w = plan.activate[i];
    if (w >= pool) throw std::invalid_argument(field + ": no worker " + std::to_string(w));
    if (!alive[w]) {
      throw std::invalid_argument(field + ": worker " + std::to_string(w) + " is dead");
    }
    hosts[w] = true;
  }
  for (std::size_t i = 0; i < plan.retire.size(); ++i) {
    const std::string field = "RescalePlan.retire[" + std::to_string(i) + "]";
    std::size_t w = plan.retire[i];
    if (w >= pool) throw std::invalid_argument(field + ": no worker " + std::to_string(w));
    if (!hosts[w]) {
      throw std::invalid_argument(field + ": worker " + std::to_string(w) + " is not active");
    }
    hosts[w] = false;
  }
  for (std::size_t i = 0; i < plan.moves.size(); ++i) {
    const std::string field = "RescalePlan.moves[" + std::to_string(i) + "]";
    const dsps::TaskMove& m = plan.moves[i];
    if (m.task >= task_count) {
      throw std::invalid_argument(field + ".task: no task " + std::to_string(m.task));
    }
    if (m.to_worker >= pool) {
      throw std::invalid_argument(field + ".to_worker: no worker " +
                                  std::to_string(m.to_worker));
    }
    if (!alive[m.to_worker]) {
      throw std::invalid_argument(field + ".to_worker: worker " + std::to_string(m.to_worker) +
                                  " is dead");
    }
    if (!hosts[m.to_worker]) {
      throw std::invalid_argument(field + ".to_worker: worker " + std::to_string(m.to_worker) +
                                  " is retired");
    }
  }
}

ElasticController::ElasticController(ElasticControllerConfig config,
                                     std::shared_ptr<PerformancePredictor> predictor)
    : Controller(config.control_interval),
      cfg_(config),
      planner_(config.rescale),
      predictor_(std::move(predictor)) {}

void ElasticController::on_attach(runtime::ControlSurface& surface) {
  if (!surface.supports_elastic_scaling()) {
    throw std::invalid_argument("ElasticController::attach: backend \"" +
                                surface.backend_name() + "\" has no elastic scaling");
  }
  if (predictor_) predictor_->reset_stream();
  reset_window_cursor(surface);
  ws_last_time_ = surface.now_seconds();
  below_rounds_ = 0;
}

ControllerTotals ElasticController::totals() const {
  ControllerTotals t;
  t.control_rounds = rescales();
  t.mean_round_ms = mean_round_ms();
  t.rescales = rescales();
  t.worker_seconds = worker_seconds_;
  return t;
}

void ElasticController::round(runtime::ControlSurface& surface) {
  const runtime::WindowHistory& wh = surface.window_history();
  observe_new_windows(surface, predictor_.get());

  const double now = surface.now_seconds();
  const std::size_t pool = surface.worker_count();
  std::vector<bool> alive(pool, false);
  std::vector<bool> active(pool, false);
  std::size_t current = 0;
  for (std::size_t w = 0; w < pool; ++w) {
    alive[w] = surface.worker_alive(w);
    active[w] = surface.worker_active(w);
    if (alive[w] && active[w]) ++current;
  }
  // attach() runs before the async engine starts its clock, so the seeded
  // ws_last_time_ can postdate `now` there; the first in-run round becomes
  // the integral origin instead of contributing a bogus interval.
  if (now > ws_last_time_) {
    worker_seconds_ += static_cast<double>(current) * (now - ws_last_time_);
  }
  ws_last_time_ = now;

  if (wh.total() == wh.first_index()) return;  // no samples yet

  double predicted_rate = 0.0;
  double predicted_proc = 0.0;
  std::size_t target = decide_target(surface, current, &predicted_rate, &predicted_proc);
  if (target == current) return;
  if (changed_once_ && now - last_change_time_ < cfg_.rescale.cooldown) return;

  RescalePlan plan = planner_.plan(surface.worker_task_snapshot(), alive, active, target);
  if (plan.empty()) return;
  // Apply in capacity-safe order: grow the pool, rebalance onto it, then
  // drain the retirees (their executors land on the survivors).
  for (std::size_t w : plan.activate) surface.add_worker(w);
  if (!plan.moves.empty()) surface.migrate_tasks(plan.moves);
  for (std::size_t w : plan.retire) surface.retire_worker(w);
  last_change_time_ = now;
  changed_once_ = true;

  RescaleAction action;
  action.time = now;
  action.active_before = current;
  action.target = plan.target_active;
  action.activated = plan.activate;
  action.retired = plan.retire;
  action.migrations = plan.moves.size();
  action.predicted_rate = predicted_rate;
  action.predicted_proc = predicted_proc;
  actions_.push_back(std::move(action));
  LOG_DEBUG("elastic: ", current, " -> ", plan.target_active, " active workers at t=", now);
}

std::size_t ElasticController::decide_target(const runtime::ControlSurface& surface,
                                             std::size_t current, double* predicted_rate,
                                             double* predicted_proc) {
  const runtime::WindowHistory& wh = surface.window_history();
  const dsps::WindowSample& last = wh.at_global(wh.total() - 1);

  if (cfg_.reactive) {
    // Threshold baseline: react to the observed max queue depth — after
    // the SLO is already under pressure.
    std::size_t max_queue = 0;
    for (const auto& w : last.workers) max_queue = std::max(max_queue, w.queue_len);
    if (static_cast<double>(max_queue) > cfg_.rescale.slo_queue_depth) {
      below_rounds_ = 0;
      return current + 1;
    }
    if (static_cast<double>(max_queue) < 0.3 * cfg_.rescale.slo_queue_depth) {
      if (++below_rounds_ >= cfg_.scale_in_patience) {
        below_rounds_ = 0;
        return current > 0 ? current - 1 : current;
      }
    } else {
      below_rounds_ = 0;
    }
    return current;
  }

  // Proactive sizing: extrapolate the arrival-rate trend lead_time ahead,
  // forecast per-tuple processing time with the shared predictor, and
  // provision demand / headroom worker-seconds per second.
  const std::size_t k = std::min<std::size_t>(cfg_.rescale.trend_windows,
                                              wh.total() - wh.first_index());
  double sum_i = 0.0, sum_r = 0.0, sum_ir = 0.0, sum_ii = 0.0;
  std::uint64_t roots = 0, executed = 0;
  double exec_time = 0.0;
  for (std::size_t j = 0; j < k; ++j) {
    const dsps::WindowSample& s = wh.at_global(wh.total() - k + j);
    double rate = static_cast<double>(s.topology.roots_emitted) / std::max(s.window, 1e-9);
    double i = static_cast<double>(j);
    sum_i += i;
    sum_r += rate;
    sum_ir += i * rate;
    sum_ii += i * i;
    roots += s.topology.roots_emitted;
    for (const auto& w : s.workers) {
      executed += w.executed;
      exec_time += w.avg_proc_time * static_cast<double>(w.executed);
    }
  }
  double rate_last = 0.0;
  {
    const dsps::WindowSample& s = last;
    rate_last = static_cast<double>(s.topology.roots_emitted) / std::max(s.window, 1e-9);
  }
  double slope = 0.0;
  const double denom = static_cast<double>(k) * sum_ii - sum_i * sum_i;
  if (k >= 2 && denom > 1e-9) slope = (static_cast<double>(k) * sum_ir - sum_i * sum_r) / denom;
  const double lead_windows = cfg_.rescale.lead_time / std::max(last.window, 1e-9);
  const double rate_hat = std::max(0.0, rate_last + slope * lead_windows);

  // Executions per root (topology depth as observed) and forecast mean
  // processing time over the active workers.
  const double exec_per_root =
      roots > 0 ? static_cast<double>(executed) / static_cast<double>(roots) : 1.0;
  double proc_hat = 0.0;
  std::size_t n_proc = 0;
  if (predictor_ && predictor_->observed_windows() >= predictor_->min_history()) {
    for (std::size_t w = 0; w < surface.worker_count(); ++w) {
      if (!surface.worker_alive(w) || !surface.worker_active(w)) continue;
      proc_hat += predictor_->predict_next(w);
      ++n_proc;
    }
  }
  if (n_proc > 0) {
    proc_hat /= static_cast<double>(n_proc);
  } else {
    // Observed fallback (also the pre-min_history warmup): executed-
    // weighted mean processing time over the trend tail.
    proc_hat = executed > 0 ? exec_time / static_cast<double>(executed) : 0.0;
  }
  *predicted_rate = rate_hat;
  *predicted_proc = proc_hat;
  if (proc_hat <= 0.0) return current;

  const double demand = rate_hat * exec_per_root * proc_hat;  // worker-s per s
  const std::size_t needed = static_cast<std::size_t>(
      std::ceil(demand / cfg_.rescale.headroom - 1e-9));
  if (needed > current) {
    below_rounds_ = 0;
    return needed;
  }
  if (needed < current) {
    // Scale in cautiously: one worker per decision, after patience.
    if (++below_rounds_ >= cfg_.scale_in_patience) {
      below_rounds_ = 0;
      return current - 1;
    }
    return current;
  }
  below_rounds_ = 0;
  return current;
}

}  // namespace repro::control

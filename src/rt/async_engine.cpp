#include "rt/async_engine.hpp"

#include <algorithm>
#include <cmath>
#include <thread>
#include <stdexcept>

#include "common/rng.hpp"

namespace repro::rt {

namespace {
constexpr auto kMetricsPoll = std::chrono::milliseconds(2);
/// A task whose owner is dead (total outage / mid-crash race) re-probes at
/// this cadence instead of idling forever: the probe keeps spout pacing
/// and window chains alive across the outage.
constexpr auto kDeadProbe = std::chrono::milliseconds(5);
/// Bound on queue batches consumed per scheduler step: long queues yield
/// back to the ready queue instead of starving sibling tasks on the loop.
constexpr std::size_t kMaxBatchesPerStep = 4;

runtime::DataPathConfig path_config(const AsyncConfig& cfg) {
  return {.batch_size = cfg.batch_size,
          .max_spout_pending = cfg.max_spout_pending,
          .ack_timeout = cfg.ack_timeout,
          .window_seconds = cfg.window_seconds,
          .history_capacity = cfg.history_capacity,
          .flow = cfg.flow,
          .replay_on_failure = false};
}

std::size_t default_threads(const AsyncConfig& cfg) {
  if (cfg.threads > 0) return cfg.threads;
  std::size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 2;
  return std::max<std::size_t>(1, std::min(cfg.workers, hw));
}

std::atomic<std::uint64_t> g_drop_stream{0};
common::Pcg32& drop_rng() {
  thread_local common::Pcg32 rng(0xa51cu, g_drop_stream.fetch_add(1, std::memory_order_relaxed));
  return rng;
}

std::chrono::steady_clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(seconds));
}
}  // namespace

AsyncEngine::AsyncEngine(dsps::Topology topology, AsyncConfig config)
    : DataPath(std::move(topology), config.workers, 1, 0x9000, path_config(config)),
      config_(config) {
  tasks_.resize(core_.task_count());
  for (TaskAsync& t : tasks_) t.queue = std::make_unique<TaskQueue>();
  workers_.resize(config_.workers);

  loop_ = std::make_unique<EventLoop>(
      default_threads(config_), core_.task_count(),
      [this](std::uint32_t task, std::size_t slot) { return step_task(task, slot); },
      [this](std::uint32_t task) { return gated(task); });

  if (config_.flow.policy == runtime::OverflowPolicy::kBlockUpstream) {
    limiter_ = std::make_unique<InflightLimiter>(flow_, core_.task_count());
    limiter_->set_deliver([this](std::size_t src, std::size_t dest, runtime::TupleBatch&& b) {
      deliver_admitted(src, dest, std::move(b));
    });
    limiter_->set_resume(
        [this](std::size_t task) { loop_->resume(static_cast<std::uint32_t>(task)); });
    flow_.set_release_listener(
        [this](std::size_t task, std::size_t) { limiter_->on_release(task); });
  }
}

AsyncEngine::~AsyncEngine() { stop(); }

double AsyncEngine::seconds_since_start(std::chrono::steady_clock::time_point tp) const {
  return std::chrono::duration<double>(tp - start_time_).count();
}

double AsyncEngine::now_seconds() const {
  return seconds_since_start(std::chrono::steady_clock::now());
}

void AsyncEngine::start() {
  if (started_) throw std::logic_error("AsyncEngine::start called twice");
  started_ = true;
  running_.store(true);
  start_time_ = std::chrono::steady_clock::now();
  auto window = to_duration(config_.window_seconds);
  for (auto& t : tasks_) {
    t.next_spout_poll = start_time_;
    t.next_window = start_time_ + window;
  }
  // Arm the initial window tick for every bolt; subsequent ticks are
  // re-armed by the window branch of step_task.
  for (std::size_t gid = 0; gid < tasks_.size(); ++gid) {
    if (!core_.task(gid).spout) {
      loop_->schedule_at(static_cast<std::uint32_t>(gid), tasks_[gid].next_window);
    }
  }
  loop_->start();
  // Kick the spouts; each step re-arms its own pacing timer.
  for (std::size_t gid = 0; gid < tasks_.size(); ++gid) {
    if (core_.task(gid).spout) loop_->notify(static_cast<std::uint32_t>(gid));
  }
  metrics_thread_ = std::thread([this] { metrics_loop(); });
}

void AsyncEngine::stop() {
  running_.store(false);
  if (loop_) loop_->stop();
  if (metrics_thread_.joinable()) metrics_thread_.join();
}

void AsyncEngine::run_for(std::chrono::milliseconds duration) {
  start();
  std::this_thread::sleep_for(duration);
  stop();
}

EventLoop::StepResult AsyncEngine::step_task(std::uint32_t task_id, std::size_t /*slot*/) {
  if (!running_.load(std::memory_order_relaxed)) return EventLoop::StepResult::kIdle;
  TaskAsync& task = tasks_[task_id];
  std::size_t owner = core_.owner(task_id);
  if (!core_.alive(owner)) {
    // Dead owner: only possible during a total outage or the short window
    // before crash reassignment lands. Keep probing so spout pacing and
    // window chains survive until the task is re-placed or restarted.
    loop_->schedule_at(task_id, std::chrono::steady_clock::now() + kDeadProbe);
    return EventLoop::StepResult::kIdle;
  }
  if (gated(task_id)) return EventLoop::StepResult::kSuspend;

  auto now = std::chrono::steady_clock::now();
  if (core_.task(task_id).spout) {
    if (now >= task.next_spout_poll) {
      spout_step(task, task_id, now);
      loop_->schedule_at(task_id, task.next_spout_poll);
      if (gated(task_id)) return EventLoop::StepResult::kSuspend;
    }
    // A notify before the pacing deadline (stale timer, resume) just goes
    // back to idle; the armed timer delivers the next poll.
    return EventLoop::StepResult::kIdle;
  }

  if (now >= task.next_window) {
    task.next_window += to_duration(config_.window_seconds);
    window_callback(task_id, seconds_since_start(now));
    loop_->schedule_at(task_id, task.next_window);
    if (gated(task_id)) return EventLoop::StepResult::kSuspend;
  }

  for (std::size_t i = 0; i < kMaxBatchesPerStep; ++i) {
    if (!bolt_step(task, task_id, owner)) break;
    if (gated(task_id)) return EventLoop::StepResult::kSuspend;
  }
  bool more;
  {
    std::lock_guard<std::mutex> lock(task.queue->mutex);
    more = !task.queue->items.empty();
  }
  return more ? EventLoop::StepResult::kYield : EventLoop::StepResult::kIdle;
}

void AsyncEngine::metrics_loop() {
  auto window = to_duration(config_.window_seconds);
  auto next = start_time_ + window;
  while (running_.load(std::memory_order_relaxed)) {
    auto now = std::chrono::steady_clock::now();
    if (now < next) {
      std::this_thread::sleep_for(std::min<std::chrono::steady_clock::duration>(
          next - now, kMetricsPoll));
      continue;
    }
    sample_window(now);
    next += window;
  }
}

void AsyncEngine::sample_window(std::chrono::steady_clock::time_point now) {
  const std::vector<std::vector<std::size_t>> hosted = worker_task_snapshot();
  dsps::WindowSample sample;
  std::vector<runtime::WorkerCounters> worker_acc(config_.workers);
  sample.tasks.reserve(tasks_.size());
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    TaskAsync& t = tasks_[i];
    runtime::TaskCounters c;
    c.executed = t.w_executed.exchange(0, std::memory_order_relaxed);
    c.emitted = t.w_emitted.exchange(0, std::memory_order_relaxed);
    c.received = t.w_received.exchange(0, std::memory_order_relaxed);
    c.dropped = t.w_dropped.exchange(0, std::memory_order_relaxed);
    c.exec_time = static_cast<double>(t.w_exec_ns.exchange(0, std::memory_order_relaxed)) * 1e-9;
    c.queue_wait = static_cast<double>(t.w_wait_ns.exchange(0, std::memory_order_relaxed)) * 1e-9;

    runtime::WorkerCounters& wc = worker_acc[core_.owner(i)];
    wc.executed += c.executed;
    wc.emitted += c.emitted;
    wc.received += c.received;
    wc.exec_time_sum += c.exec_time;
    wc.queue_wait_sum += c.queue_wait;
    wc.service_seconds += c.exec_time;
    sample.tasks.push_back(task_row(i, c));
  }

  sample.workers.reserve(config_.workers);
  for (std::size_t w = 0; w < config_.workers; ++w) {
    sample.workers.push_back(worker_row(w, /*machine=*/0, hosted[w], worker_acc[w], sample.tasks));
  }

  // No machine model under the event-loop runtime, but the forecast features
  // want a machine row for every worker's machine — synthesize machine 0
  // (where every worker reports) from the worker windows.
  {
    dsps::MachineWindowStats machine;
    double busy = 0.0;
    for (const auto& ws : sample.workers) busy += ws.cpu_share;
    double cores =
        static_cast<double>(std::max(1u, std::thread::hardware_concurrency()));
    machine.machine = 0;
    machine.cpu_util = std::min(1.0, busy / cores);
    machine.load = busy;
    sample.machines.push_back(machine);
  }

  // Scheduler observability: window deltas of the loop/limiter lifetime
  // counters (metrics thread only, so a plain prev-snapshot suffices).
  dsps::SchedulerWindowStats totals = scheduler_totals();
  sample.scheduler.wakeups_productive = totals.wakeups_productive - sched_prev_.wakeups_productive;
  sample.scheduler.wakeups_spurious = totals.wakeups_spurious - sched_prev_.wakeups_spurious;
  sample.scheduler.steals = totals.steals - sched_prev_.steals;
  sample.scheduler.suspends = totals.suspends - sched_prev_.suspends;
  sample.scheduler.resumes = totals.resumes - sched_prev_.resumes;
  sample.scheduler.ready_depth = loop_->ready_depth();
  sample.scheduler.ready_peak = totals.ready_peak;
  sched_prev_ = totals;

  close_window(std::move(sample), seconds_since_start(now));
  fire_control();
}

void AsyncEngine::spout_step(TaskAsync& task, std::size_t task_id,
                             std::chrono::steady_clock::time_point now) {
  const double t_now = seconds_since_start(now);
  double delay = core_.task(task_id).spout->next_delay(t_now);
  pull_roots(task_id, t_now, delay);
  task.next_spout_poll = now + to_duration(std::max(delay, 1e-6));
}

bool AsyncEngine::bolt_step(TaskAsync& task, std::size_t task_id, std::size_t worker) {
  QueuedBatch qb;
  {
    std::lock_guard<std::mutex> lock(task.queue->mutex);
    if (task.queue->items.empty()) return false;
    qb = std::move(task.queue->items.front());
    task.queue->items.pop_front();
    task.queue->tuples -= qb.batch.size();
  }
  const std::size_t n = qb.batch.size();
  if (flow_.bounded()) {
    // The release listener fires inline here: parked batches toward this
    // task deliver (re-entering its queue mutex, which we no longer hold)
    // and their suspended emitters are resumed.
    flow_.release_n(task_id, n);
  }
  auto begin = std::chrono::steady_clock::now();
  task.w_wait_ns.fetch_add(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(begin - qb.enqueued).count()) *
          n,
      std::memory_order_relaxed);

  // Under kBlockUpstream some of the flushed emits may park — the caller
  // checks gated() after this step.
  execute(task_id, qb.batch, [&] {
    auto done = std::chrono::steady_clock::now();
    const double factor = workers_[worker].slowdown.load(std::memory_order_relaxed);
    if (factor > 1.0) {
      auto deadline = done + to_duration(std::chrono::duration<double>(done - begin).count() *
                                         (factor - 1.0));
      while (std::chrono::steady_clock::now() < deadline &&
             running_.load(std::memory_order_relaxed)) {
      }
      done = std::chrono::steady_clock::now();
    }
    task.w_exec_ns.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(done - begin).count()),
        std::memory_order_relaxed);
    task.executed.fetch_add(n, std::memory_order_relaxed);
    task.w_executed.fetch_add(n, std::memory_order_relaxed);
    return seconds_since_start(done);
  });
  return true;
}

void AsyncEngine::count_emitted(std::size_t task, std::size_t n) {
  tasks_[task].w_emitted.fetch_add(n, std::memory_order_relaxed);
}

void AsyncEngine::push_locked(TaskQueue& q, QueuedBatch&& qb) {
  q.tuples += qb.batch.size();
  q.high_water = std::max(q.high_water, q.tuples);
  if (q.items.empty() || !coalesce(q.items.back().batch, qb.batch)) {
    q.items.push_back(std::move(qb));
  }
}

void AsyncEngine::deliver_admitted(std::size_t /*src*/, std::size_t dest,
                                   runtime::TupleBatch&& b) {
  QueuedBatch qb{std::move(b), std::chrono::steady_clock::now()};
  TaskQueue& q = *tasks_[dest].queue;
  {
    std::lock_guard<std::mutex> lock(q.mutex);
    push_locked(q, std::move(qb));
  }
  loop_->notify(static_cast<std::uint32_t>(dest));
}

void AsyncEngine::admit(std::size_t src_task, std::size_t dest, runtime::TupleBatch& b) {
  TaskAsync& task = tasks_[dest];
  task.w_received.fetch_add(b.size(), std::memory_order_relaxed);
  double p = workers_[core_.owner(dest)].drop_prob.load(std::memory_order_relaxed);
  if (p > 0.0) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < b.size(); ++i) {
      if (drop_rng().bernoulli(p)) continue;
      b.move_row(i, kept);
      ++kept;
    }
    std::size_t dropped = b.size() - kept;
    if (dropped > 0) {
      task.w_dropped.fetch_add(dropped, std::memory_order_relaxed);
      b.truncate(kept);
    }
    if (b.empty()) return;
  }

  if (!flow_.bounded()) {
    deliver_admitted(src_task, dest, std::move(b));
    return;
  }

  if (flow_.config().policy == runtime::OverflowPolicy::kDropNewest) {
    // Admit the leading rows that fit, shed the tail — check + acquire +
    // push under the queue mutex so concurrent producers cannot over-admit
    // past the capacity.
    const std::size_t cap = flow_.config().queue_capacity;
    const std::size_t m = b.size();
    TaskQueue& q = *task.queue;
    QueuedBatch qb{std::move(b), std::chrono::steady_clock::now()};
    std::size_t shed;
    {
      std::lock_guard<std::mutex> lock(q.mutex);
      const std::size_t free = cap > q.tuples ? cap - q.tuples : 0;
      if (free == 0) {
        shed = m;
      } else {
        shed = m > free ? m - free : 0;
        if (shed > 0) qb.batch.truncate(free);
        flow_.acquire_n(dest, qb.batch.size());
        push_locked(q, std::move(qb));
      }
    }
    if (shed > 0) flow_.count_overflow_drops(dest, shed);
    if (shed < m) loop_->notify(static_cast<std::uint32_t>(dest));
    return;
  }

  // kBlockUpstream: whole-batch admission through the limiter — either
  // delivered now or parked FIFO with the emitting task gated. No thread
  // blocks; the caller's step finishes and returns kSuspend.
  limiter_->admit_or_park(src_task, dest, std::move(b));
}

RtTotals AsyncEngine::totals() const {
  RtTotals t;
  const RootTotals roots = root_totals();
  t.roots_emitted = roots.emitted;
  t.acked = roots.acked;
  t.failed = roots.failed;
  for (const auto& task : tasks_) t.executed += task.executed.load();
  t.lost = lost_.load();
  t.dropped_overflow = flow_.total_dropped_overflow();
  t.worker_crashes = crashes_.load();
  t.worker_restarts = restarts_.load();
  t.worker_retires = retires_.load();
  t.worker_adds = adds_.load();
  t.task_migrations = migrations_.load();
  dsps::SchedulerWindowStats s = scheduler_totals();
  t.wakeups_productive = s.wakeups_productive;
  t.wakeups_spurious = s.wakeups_spurious;
  t.steals = s.steals;
  t.suspends = s.suspends;
  t.resumes = s.resumes;
  t.ready_peak = s.ready_peak;
  return t;
}

dsps::SchedulerWindowStats AsyncEngine::scheduler_totals() const {
  dsps::SchedulerWindowStats s;
  EventLoopStats ls = loop_->stats();
  s.wakeups_productive = ls.wakeups_productive;
  s.wakeups_spurious = ls.wakeups_spurious;
  s.steals = ls.steals;
  s.ready_depth = loop_->ready_depth();
  s.ready_peak = ls.ready_peak;
  if (limiter_) {
    s.suspends = limiter_->suspends();
    s.resumes = limiter_->resumes();
  }
  return s;
}

double AsyncEngine::mean_complete_latency() const {
  const RootTotals roots = root_totals();
  return roots.acked == 0 ? 0.0 : roots.latency_sum / static_cast<double>(roots.acked);
}

std::vector<std::uint64_t> AsyncEngine::executed_per_task() const {
  std::vector<std::uint64_t> out;
  out.reserve(tasks_.size());
  for (const auto& t : tasks_) out.push_back(t.executed.load());
  return out;
}

std::size_t AsyncEngine::queue_length_of_task(std::size_t global_task) const {
  TaskQueue& q = *tasks_.at(global_task).queue;
  std::lock_guard<std::mutex> lock(q.mutex);
  return q.tuples;
}

void AsyncEngine::set_control_hook(double interval,
                                   runtime::ControlSurface::ControlHook hook) {
  if (started_) throw std::logic_error("AsyncEngine::set_control_hook: set before start()");
  DataPath::set_control_hook(interval, std::move(hook));
}

void AsyncEngine::set_worker_slowdown(std::size_t worker, double factor) {
  workers_.at(worker).slowdown.store(std::max(1.0, factor), std::memory_order_relaxed);
}

void AsyncEngine::set_worker_drop_prob(std::size_t worker, double probability) {
  workers_.at(worker).drop_prob.store(std::clamp(probability, 0.0, 1.0),
                                      std::memory_order_relaxed);
}

double AsyncEngine::worker_slowdown(std::size_t worker) const {
  return workers_.at(worker).slowdown.load(std::memory_order_relaxed);
}

double AsyncEngine::worker_drop_prob(std::size_t worker) const {
  return workers_.at(worker).drop_prob.load(std::memory_order_relaxed);
}

void AsyncEngine::crash_worker(std::size_t worker) {
  std::vector<dsps::TaskMove> moved;
  {
    std::lock_guard<std::mutex> lock(placement_lock_);
    if (!core_.mark_dead(worker)) return;
    workers_[worker].slowdown.store(1.0, std::memory_order_relaxed);
    workers_[worker].drop_prob.store(0.0, std::memory_order_relaxed);
    crashes_.fetch_add(1, std::memory_order_relaxed);
    // Everything queued at the dead worker's executors is discarded (those
    // roots fail at the ack timeout). A batch mid-step on a loop thread
    // completes. The credit release below re-delivers any batches parked
    // toward the wiped queues.
    for (std::size_t t : core_.worker_tasks()[worker]) {
      TaskQueue& q = *tasks_[t].queue;
      std::size_t wiped;
      {
        std::lock_guard<std::mutex> qlock(q.mutex);
        wiped = q.tuples;
        lost_.fetch_add(wiped, std::memory_order_relaxed);
        q.items.clear();
        q.tuples = 0;
      }
      if (flow_.bounded()) flow_.release_n(t, wiped);
    }
    moved = core_.reassign_dead(worker);
  }
  // Wake the re-placed executors (outside the placement mutex): spouts
  // re-arm their pacing chain, bolts drain whatever arrives next.
  for (const dsps::TaskMove& m : moved) loop_->notify(static_cast<std::uint32_t>(m.task));
}

void AsyncEngine::restart_worker(std::size_t worker) {
  std::optional<std::vector<std::size_t>> reclaimed;
  {
    std::lock_guard<std::mutex> lock(placement_lock_);
    reclaimed = core_.restart(worker);
  }
  if (!reclaimed) return;
  restarts_.fetch_add(1, std::memory_order_relaxed);
  for (std::size_t t : *reclaimed) loop_->notify(static_cast<std::uint32_t>(t));
}

void AsyncEngine::add_worker(std::size_t worker) {
  std::lock_guard<std::mutex> lock(placement_lock_);
  if (core_.activate(worker)) adds_.fetch_add(1, std::memory_order_relaxed);
}

void AsyncEngine::retire_worker(std::size_t worker) {
  std::optional<std::vector<dsps::TaskMove>> drained;
  {
    std::lock_guard<std::mutex> lock(placement_lock_);
    drained = core_.retire(worker);
  }
  if (!drained) return;
  retires_.fetch_add(1, std::memory_order_relaxed);
  resume_migrated(*drained);
}

void AsyncEngine::migrate_tasks(const std::vector<dsps::TaskMove>& moves) {
  std::vector<dsps::TaskMove> applied;
  {
    std::lock_guard<std::mutex> lock(placement_lock_);
    applied = core_.migrate(moves);
  }
  resume_migrated(applied);
}

void AsyncEngine::resume_migrated(const std::vector<dsps::TaskMove>& applied) {
  // Queued tuples travel with each task; the loop resumes it on its new
  // host.
  migrations_.fetch_add(applied.size(), std::memory_order_relaxed);
  for (const dsps::TaskMove& m : applied) loop_->notify(static_cast<std::uint32_t>(m.task));
}

}  // namespace repro::rt

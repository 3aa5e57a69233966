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

dsps::Assignment make_assignment(const dsps::Topology& topo, const AsyncConfig& cfg) {
  if (cfg.workers == 0) throw std::invalid_argument("AsyncEngine: need workers");
  return dsps::interleaved_schedule(topo, cfg.workers, 1);
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

class AsyncEngine::Collector : public runtime::TaskCollectorBase {
 public:
  Collector(AsyncEngine* engine, std::size_t task)
      : runtime::TaskCollectorBase(&engine->core_, task), engine_(engine) {}

  void emit(dsps::Values values, const std::string& stream) override {
    dsps::Tuple t;
    t.root_id = current_root_;
    t.root_emit_time = current_root_emit_;
    t.stream = stream;
    t.values = std::move(values);
    engine_->buffer_emit(task_, std::move(t));
  }

  sim::SimTime now() const override {
    return engine_->seconds_since_start(std::chrono::steady_clock::now());
  }

  void set_context(std::uint64_t root, double root_emit_seconds) {
    current_root_ = root;
    current_root_emit_ = root_emit_seconds;
  }
  void clear_context() { current_root_ = 0; }

 private:
  AsyncEngine* engine_;
  std::uint64_t current_root_ = 0;
  double current_root_emit_ = 0.0;
};

AsyncEngine::AsyncEngine(dsps::Topology topology, AsyncConfig config)
    : topo_(std::move(topology)),
      config_(config),
      core_(topo_, make_assignment(topo_, config_), 0x9000),
      flow_(config_.flow, core_.task_count()),
      acker_(config.ack_timeout),
      history_(config.history_capacity) {
  if (config_.flow.policy == runtime::OverflowPolicy::kBlockUpstream) {
    if (config_.max_spout_pending == 0) {
      throw std::invalid_argument(
          "AsyncEngine: kBlockUpstream needs max_spout_pending > 0 — the "
          "pending-tree limit is the end-to-end cap on parked emits");
    }
    if (config_.batch_size > config_.flow.queue_capacity) {
      throw std::invalid_argument(
          "AsyncEngine: batch_size must be <= queue_capacity under kBlockUpstream — "
          "batches park whole, so a larger batch could never be admitted");
    }
  }
  if (config_.batch_size == 0) {
    throw std::invalid_argument("AsyncEngine: batch_size must be >= 1");
  }
  spout_cap_.store(config_.max_spout_pending, std::memory_order_relaxed);
  tasks_.resize(core_.task_count());
  for (std::size_t gid = 0; gid < tasks_.size(); ++gid) {
    tasks_[gid].collector = std::make_unique<Collector>(this, gid);
    tasks_[gid].queue = std::make_unique<TaskQueue>();
  }
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

  acker_.set_on_complete([this](std::uint64_t, double latency, std::size_t) {
    acked_.fetch_add(1, std::memory_order_relaxed);
    latency_ns_sum_.fetch_add(static_cast<std::uint64_t>(latency * 1e9),
                              std::memory_order_relaxed);
    ++w_topo_.acked;
    w_topo_.latency_sum += latency;
    w_topo_.latencies.push_back(latency);
  });
  acker_.set_on_fail([this](std::uint64_t, std::size_t) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    ++w_topo_.failed;
  });

  core_.open_components();
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

  runtime::TaskInfo& info = core_.task(task_id);
  auto now = std::chrono::steady_clock::now();
  if (info.spout) {
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
    auto* collector = static_cast<Collector*>(task.collector.get());
    collector->clear_context();
    info.bolt->on_window(seconds_since_start(now), *collector);
    flush_emits(task_id);
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
  dsps::WindowSample sample;
  sample.time = seconds_since_start(now);
  sample.window = config_.window_seconds;

  std::vector<std::vector<std::size_t>> worker_tasks;
  {
    std::lock_guard<std::mutex> lock(placement_mutex_);
    worker_tasks = core_.worker_tasks();
  }

  std::vector<runtime::WorkerCounters> worker_acc(config_.workers);
  std::uint64_t win_overflow = 0;
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
    if (flow_.bounded()) {
      c.dropped_overflow = flow_.take_overflow_drops(i);
      c.bp_stall = flow_.take_stall(i);
      win_overflow += c.dropped_overflow;
    }

    const runtime::TaskInfo& info = core_.task(i);
    std::size_t owner = core_.owner(i);
    runtime::WorkerCounters& wc = worker_acc[owner];
    wc.executed += c.executed;
    wc.emitted += c.emitted;
    wc.received += c.received;
    wc.exec_time_sum += c.exec_time;
    wc.queue_wait_sum += c.queue_wait;
    wc.service_seconds += c.exec_time;
    wc.bp_stall += c.bp_stall;

    std::size_t queue_len;
    {
      std::lock_guard<std::mutex> lock(t.queue->mutex);
      queue_len = t.queue->tuples;
    }
    sample.tasks.push_back(runtime::finalize_task_window(
        i, core_.components()[info.component].name, info.comp_index, owner, c, queue_len));
  }

  sample.workers.reserve(config_.workers);
  for (std::size_t w = 0; w < config_.workers; ++w) {
    std::size_t qlen = 0;
    for (std::size_t t : worker_tasks[w]) qlen += sample.tasks[t].queue_len;
    sample.workers.push_back(runtime::finalize_worker_window(
        w, /*machine=*/0, worker_tasks[w].size(), worker_acc[w], qlen, config_.window_seconds));
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

  {
    std::lock_guard<std::mutex> lock(acker_mutex_);
    w_topo_.dropped_overflow += win_overflow;
    acker_.sweep(seconds_since_start(now));
    sample.topology =
        runtime::finalize_topology_window(w_topo_, config_.window_seconds, acker_.pending());
  }

  history_.push(std::move(sample));

  if (control_hook_ && control_interval_ > 0.0) {
    std::size_t every = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(control_interval_ / config_.window_seconds)));
    if (history_.total() % every == 0) control_hook_(*this);
  }
}

void AsyncEngine::spout_step(TaskAsync& task, std::size_t task_id,
                             std::chrono::steady_clock::time_point now) {
  dsps::Spout& spout = *core_.task(task_id).spout;
  double t_now = seconds_since_start(now);
  double delay = spout.next_delay(t_now);

  std::size_t budget = 0;
  const std::size_t cap = spout_cap_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(acker_mutex_);
    std::size_t pending = acker_.pending_for(task_id);
    budget = pending >= cap ? 0 : cap - pending;
  }
  budget = std::min(budget, config_.batch_size);
  if (budget == 0) {
    task.next_spout_poll = now + to_duration(std::max(delay, 1e-6));
    return;
  }

  thread_local runtime::TupleBatch batch;
  batch.clear();
  batch.stream = dsps::kDefaultStream;
  while (batch.size() < budget) {
    if (!batch.empty()) delay += spout.next_delay(t_now);
    std::optional<dsps::Values> vals = spout.next(t_now);
    if (!vals.has_value()) break;
    std::uint64_t root = next_tuple_id_.fetch_add(1, std::memory_order_relaxed);
    batch.push_row(0, root, t_now, std::move(*vals));
  }
  task.next_spout_poll = now + to_duration(std::max(delay, 1e-6));
  if (batch.empty()) return;

  {
    std::lock_guard<std::mutex> lock(acker_mutex_);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      acker_.register_root(batch.root_ids[i], t_now, task_id);
    }
    w_topo_.roots_emitted += batch.size();
  }
  roots_emitted_.fetch_add(batch.size(), std::memory_order_relaxed);
  route_emit_batch(task_id, batch);
  {
    std::lock_guard<std::mutex> lock(acker_mutex_);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      acker_.discard_if_unanchored(batch.root_ids[i], t_now);
    }
    acker_.sweep(t_now);
  }
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

  auto* collector = static_cast<Collector*>(task.collector.get());
  dsps::Bolt* bolt = core_.task(task_id).bolt.get();
  thread_local dsps::Tuple probe;
  probe.stream = qb.batch.stream;
  for (std::size_t i = 0; i < n; ++i) {
    collector->set_context(qb.batch.root_ids[i], qb.batch.root_emit_times[i]);
    qb.batch.borrow_row(i, probe);
    bolt->execute(probe, *collector);
  }
  collector->clear_context();
  // Route out buffered emits BEFORE acking the inputs (children must
  // anchor before the parent ack). Under kBlockUpstream some of these may
  // park — the caller checks gated() after this step.
  flush_emits(task_id);

  auto done = std::chrono::steady_clock::now();
  double factor = workers_[worker].slowdown.load(std::memory_order_relaxed);
  if (factor > 1.0) {
    auto deadline =
        done + to_duration(std::chrono::duration<double>(done - begin).count() * (factor - 1.0));
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

  bool any_anchored = false;
  for (std::size_t i = 0; i < n; ++i) {
    any_anchored = any_anchored || qb.batch.root_ids[i] != 0;
  }
  if (any_anchored) {
    std::lock_guard<std::mutex> lock(acker_mutex_);
    acker_.ack_batch(qb.batch.root_ids.data(), qb.batch.ids.data(), n,
                     seconds_since_start(std::chrono::steady_clock::now()));
  }
  return true;
}

void AsyncEngine::buffer_emit(std::size_t task, dsps::Tuple&& t) {
  runtime::TupleBatch* full = tasks_[task].emits.append(std::move(t), config_.batch_size);
  if (full != nullptr) {
    route_emit_batch(task, *full);
    full->clear();
  }
}

void AsyncEngine::flush_emits(std::size_t task) {
  tasks_[task].emits.flush([&](runtime::TupleBatch& b) { route_emit_batch(task, b); });
}

void AsyncEngine::route_emit_batch(std::size_t src_task, runtime::TupleBatch& batch) {
  tasks_[src_task].w_emitted.fetch_add(batch.size(), std::memory_order_relaxed);
  thread_local runtime::BatchRouteScratch scratch;
  core_.route_batch(
      src_task, batch, scratch,
      [&](std::size_t dest, const std::vector<std::uint32_t>& rows, bool may_move) {
        runtime::TupleBatch copy;
        copy.stream = batch.stream;
        if (may_move) {
          copy.steal_rows(batch, rows);
        } else {
          copy.append_rows(batch, rows);
        }
        const std::size_t m = copy.size();
        std::uint64_t base = next_tuple_id_.fetch_add(m, std::memory_order_relaxed);
        bool any_anchored = false;
        for (std::size_t k = 0; k < m; ++k) {
          copy.ids[k] = base + k;
          any_anchored = any_anchored || copy.root_ids[k] != 0;
        }
        if (any_anchored) {
          std::lock_guard<std::mutex> lock(acker_mutex_);
          acker_.add_anchors(copy.root_ids.data(), copy.ids.data(), m);
        }
        enqueue(src_task, dest, std::move(copy));
      });
}

void AsyncEngine::deliver_admitted(std::size_t src, std::size_t dest,
                                   runtime::TupleBatch&& b) {
  (void)src;
  QueuedBatch qb;
  qb.batch = std::move(b);
  qb.enqueued = std::chrono::steady_clock::now();
  const std::size_t m = qb.batch.size();
  TaskQueue& q = *tasks_[dest].queue;
  {
    std::lock_guard<std::mutex> lock(q.mutex);
    // Destination-side re-coalescing (batch > 1): fold the arriving
    // fragment into the queue tail when it fits, as the simulator does.
    bool merged = false;
    if (config_.batch_size > 1 && !q.items.empty()) {
      runtime::TupleBatch& tail = q.items.back().batch;
      if (tail.stream == qb.batch.stream &&
          tail.size() + qb.batch.size() <= config_.batch_size) {
        tail.append_all(std::move(qb.batch));
        merged = true;
      }
    }
    if (!merged) q.items.push_back(std::move(qb));
    q.tuples += m;
    q.high_water = std::max(q.high_water, q.tuples);
  }
  loop_->notify(static_cast<std::uint32_t>(dest));
}

void AsyncEngine::enqueue(std::size_t src_task, std::size_t dest, runtime::TupleBatch&& b) {
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
    QueuedBatch qb;
    qb.batch = std::move(b);
    qb.enqueued = std::chrono::steady_clock::now();
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
        q.tuples += qb.batch.size();
        q.high_water = std::max(q.high_water, q.tuples);
        bool merged = false;
        if (config_.batch_size > 1 && !q.items.empty()) {
          runtime::TupleBatch& tail = q.items.back().batch;
          if (tail.stream == qb.batch.stream &&
              tail.size() + qb.batch.size() <= config_.batch_size) {
            tail.append_all(std::move(qb.batch));
            merged = true;
          }
        }
        if (!merged) q.items.push_back(std::move(qb));
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
  t.roots_emitted = roots_emitted_.load();
  t.acked = acked_.load();
  t.failed = failed_.load();
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
  std::uint64_t n = acked_.load();
  if (n == 0) return 0.0;
  return static_cast<double>(latency_ns_sum_.load()) / static_cast<double>(n) * 1e-9;
}

std::vector<std::uint64_t> AsyncEngine::executed_per_task() const {
  std::vector<std::uint64_t> out;
  out.reserve(tasks_.size());
  for (const auto& t : tasks_) out.push_back(t.executed.load());
  return out;
}

std::pair<std::size_t, std::size_t> AsyncEngine::tasks_of(const std::string& component) const {
  return core_.tasks_of(component);
}

std::size_t AsyncEngine::worker_of_task(std::size_t global_task) const {
  return core_.worker_of_task(global_task);
}

std::vector<std::size_t> AsyncEngine::workers_of(const std::string& component) const {
  return core_.workers_of(component);
}

std::size_t AsyncEngine::queue_length_of_task(std::size_t global_task) const {
  TaskQueue& q = *tasks_.at(global_task).queue;
  std::lock_guard<std::mutex> lock(q.mutex);
  return q.tuples;
}

std::shared_ptr<dsps::DynamicRatio> AsyncEngine::dynamic_ratio(const std::string& from,
                                                               const std::string& to) const {
  return runtime::find_dynamic_ratio(topo_, from, to);
}

std::vector<runtime::DynamicEdge> AsyncEngine::dynamic_edges() const {
  return runtime::list_dynamic_edges(topo_);
}

void AsyncEngine::set_control_hook(double interval,
                                   runtime::ControlSurface::ControlHook hook) {
  if (started_) throw std::logic_error("AsyncEngine::set_control_hook: set before start()");
  control_interval_ = interval;
  control_hook_ = std::move(hook);
}

void AsyncEngine::set_max_spout_pending(std::size_t cap) {
  if (config_.flow.policy == runtime::OverflowPolicy::kBlockUpstream && cap == 0) {
    throw std::invalid_argument(
        "AsyncEngine::set_max_spout_pending: kBlockUpstream needs a cap > 0 — "
        "the pending-tree limit is the end-to-end cap on parked emits");
  }
  spout_cap_.store(cap, std::memory_order_relaxed);
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
    std::lock_guard<std::mutex> lock(placement_mutex_);
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
    std::lock_guard<std::mutex> lock(placement_mutex_);
    reclaimed = core_.restart(worker);
  }
  if (!reclaimed) return;
  restarts_.fetch_add(1, std::memory_order_relaxed);
  for (std::size_t t : *reclaimed) loop_->notify(static_cast<std::uint32_t>(t));
}

bool AsyncEngine::worker_alive(std::size_t worker) const { return core_.worker_alive(worker); }

bool AsyncEngine::worker_active(std::size_t worker) const { return core_.worker_active(worker); }

std::vector<std::vector<std::size_t>> AsyncEngine::worker_task_snapshot() const {
  std::lock_guard<std::mutex> lock(placement_mutex_);
  return core_.worker_tasks();
}

void AsyncEngine::add_worker(std::size_t worker) {
  std::lock_guard<std::mutex> lock(placement_mutex_);
  if (core_.activate(worker)) adds_.fetch_add(1, std::memory_order_relaxed);
}

void AsyncEngine::retire_worker(std::size_t worker) {
  std::optional<std::vector<dsps::TaskMove>> drained;
  {
    std::lock_guard<std::mutex> lock(placement_mutex_);
    drained = core_.retire(worker);
  }
  if (!drained) return;
  retires_.fetch_add(1, std::memory_order_relaxed);
  resume_migrated(*drained);
}

void AsyncEngine::migrate_tasks(const std::vector<dsps::TaskMove>& moves) {
  std::vector<dsps::TaskMove> applied;
  {
    std::lock_guard<std::mutex> lock(placement_mutex_);
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

std::string AsyncEngine::placement_audit() const {
  std::lock_guard<std::mutex> lock(placement_mutex_);
  return core_.placement_audit();
}

}  // namespace repro::rt

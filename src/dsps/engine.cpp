#include "dsps/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace repro::dsps {

namespace {
runtime::DataPathConfig path_config(const ClusterConfig& cfg) {
  return {.batch_size = cfg.batch_size,
          .max_spout_pending = cfg.max_spout_pending,
          .ack_timeout = cfg.ack_timeout,
          .window_seconds = cfg.window_seconds,
          .history_capacity = cfg.history_capacity,
          .flow = cfg.flow,
          .replay_on_failure = cfg.replay_on_failure};
}
}  // namespace

Engine::Engine(Topology topology, ClusterConfig config)
    : DataPath(std::move(topology), config.machines * config.workers_per_machine,
               config.machines, config.seed, path_config(config), runtime::P99Source::kExact),
      cfg_(config),
      network_(config.network, config.seed),
      rng_service_(config.seed, 0x51),
      rng_drop_(config.seed, 0xd1) {
  if (!cfg_.machine_cores.empty() && cfg_.machine_cores.size() != cfg_.machines) {
    throw std::invalid_argument(
        "Engine: machine_cores must be empty (uniform) or hold exactly one "
        "entry per machine");
  }
  for (std::size_t m = 0; m < cfg_.machines; ++m) {
    double cores =
        cfg_.machine_cores.empty() ? cfg_.cores_per_machine : cfg_.machine_cores[m];
    if (cores <= 0.0) {
      throw std::invalid_argument("Engine: machine_cores entries must be > 0");
    }
    machines_.emplace_back(m, "machine-" + std::to_string(m), cores);
  }
  workers_.resize(worker_count());
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    workers_[w].id = w;
    workers_[w].machine = assignment().worker_to_machine[w];
  }
  tasks_.resize(core_.task_count());
  acker_.set_on_replay(
      [this](std::uint64_t /*root*/, std::size_t spout_task, Values&& values,
             std::size_t attempt) { replay_root(spout_task, std::move(values), attempt); });
}

Engine::~Engine() = default;

void Engine::run_for(double seconds) { run_until(now() + seconds); }

void Engine::run_until(sim::SimTime t) {
  if (!started_) {
    started_ = true;
    for (std::size_t task = 0; task < core_.task_count(); ++task) {
      if (core_.task(task).spout) schedule_spout_poll(task, 0.0);
    }
    queue_.schedule_after(cfg_.window_seconds, [this] { sample_window(); });
    if (cfg_.gc_interval_mean > 0.0) {
      for (std::size_t w = 0; w < workers_.size(); ++w) schedule_gc(w);
    }
  }
  queue_.run_until(t);
}

void Engine::schedule_spout_poll(std::size_t task, double delay) {
  queue_.schedule_after(std::max(delay, 1e-9), [this, task] { spout_poll(task); });
}

void Engine::spout_poll(std::size_t task) {
  Spout& spout = *core_.task(task).spout;
  if (!core_.alive(core_.owner(task))) {
    // Hosting worker is down with no survivor to take the executor; the
    // spout pauses until a restart re-hosts it.
    schedule_spout_poll(task, std::max(spout.next_delay(now()), 1e-3));
    return;
  }
  double delay = spout.next_delay(now());
  if (tasks_[task].blocked_out > 0 || !pull_roots(task, now(), delay)) {
    // Backpressure: an emit is parked downstream or the pending-tree limit
    // is reached; retry shortly without consuming from the workload
    // generator.
    delay = std::max(delay, 1e-3);
  }
  schedule_spout_poll(task, delay);
}

void Engine::count_emitted(std::size_t task, std::size_t n) {
  tasks_[task].window.emitted += n;
  workers_[core_.owner(task)].window.emitted += n;
}

void Engine::root_done(std::uint64_t root, std::size_t spout_task, bool acked) {
  Spout& spout = *core_.task(spout_task).spout;
  if (acked) {
    spout.on_ack(root);
  } else {
    spout.on_fail(root);
  }
}

std::uint32_t Engine::acquire_slot() {
  if (free_slots_.empty()) {
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

void Engine::release_slot(std::uint32_t slot) {
  slots_[slot].batch.clear();
  free_slots_.push_back(slot);
}

void Engine::fifo_push(SlotFifo& q, std::uint32_t slot) {
  slots_[slot].next = kNoSlot;
  if (q.empty()) {
    q.head = slot;
  } else {
    slots_[q.tail].next = slot;
  }
  q.tail = slot;
}

std::uint32_t Engine::fifo_pop(SlotFifo& q) {
  const std::uint32_t slot = q.head;
  q.head = slots_[slot].next;
  if (q.head == kNoSlot) q.tail = kNoSlot;
  return slot;
}

runtime::TupleBatch& Engine::copy_buffer(std::size_t /*src_task*/) {
  building_ = acquire_slot();
  return slots_[building_].batch;
}

void Engine::admit(std::size_t src_task, std::size_t dest, runtime::TupleBatch& copy) {
  const std::uint32_t slot = building_;  // `copy` is slots_[slot].batch
  const std::size_t m = copy.size();
  totals_.tuples_delivered += m;
  const std::size_t accepted = flow_.admit_n(dest, m);
  if (accepted == m) {
    flow_.acquire_n(dest, m);
    transfer(src_task, dest, slot);
  } else if (flow_.config().policy == runtime::OverflowPolicy::kBlockUpstream) {
    // Whole-batch park (admit_n never splits a blocked batch).
    slots_[slot].src_task = static_cast<std::uint32_t>(src_task);
    slots_[slot].wait_start = now();
    fifo_push(tasks_[dest].parked, slot);
    ++tasks_[src_task].blocked_out;
  } else {
    // kDropNewest: the head that fits transfers, the tail sheds —
    // accounted per tuple.
    const std::size_t shed = m - accepted;
    flow_.count_overflow_drops(dest, shed);
    totals_.tuples_dropped_overflow += shed;
    if (accepted > 0) {
      copy.truncate(accepted);
      flow_.acquire_n(dest, accepted);
      transfer(src_task, dest, slot);
    } else {
      release_slot(slot);
    }
  }
}

void Engine::transfer(std::size_t src_task, std::size_t dest, std::uint32_t slot) {
  double delay = network_.transfer_delay(workers_[core_.owner(src_task)].machine,
                                         workers_[core_.owner(dest)].machine);
  queue_.schedule_after(delay, [this, d = static_cast<std::uint32_t>(dest), slot] {
    deliver(d, slot);
  });
}

void Engine::drain_parked(std::size_t dest) {
  TaskRuntime& d = tasks_[dest];
  while (!d.parked.empty()) {
    const BatchSlot& p = slots_[d.parked.head];
    const std::size_t m = p.batch.size();
    if (flow_.admit_n(dest, m) != m) break;
    const std::uint32_t slot = fifo_pop(d.parked);
    const std::size_t src_task = p.src_task;
    flow_.acquire_n(dest, m);
    flow_.add_stall(src_task, now() - p.wait_start);
    TaskRuntime& src = tasks_[src_task];
    if (src.blocked_out > 0) --src.blocked_out;
    transfer(src_task, dest, slot);
    // The emitter's last parked batch left: it may start service again
    // (spouts resume on their own next poll).
    if (src.blocked_out == 0) try_start(src_task);
  }
}

void Engine::deliver(std::size_t dest_task, std::uint32_t slot) {
  TaskRuntime& task = tasks_[dest_task];
  Worker& w = workers_[core_.owner(dest_task)];
  runtime::TupleBatch& b = slots_[slot].batch;
  const std::size_t n = b.size();
  task.window.received += n;
  w.window.received += n;
  if (w.drop_prob > 0.0) {
    // Per-tuple fault dice in row order (the draw sequence matches the
    // per-tuple path); survivors compact in place.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (rng_drop_.bernoulli(w.drop_prob)) continue;
      b.move_row(i, kept);
      ++kept;
    }
    if (kept < n) {
      const std::size_t dropped = n - kept;
      task.window.dropped += dropped;
      totals_.tuples_dropped += dropped;
      b.truncate(kept);
      flow_.release_n(dest_task, dropped);  // the admitted copies are gone
      drain_parked(dest_task);
      if (kept == 0) {
        release_slot(slot);
        return;  // never acked: the roots fail at the timeout sweep
      }
    }
  }
  task.queued_tuples += b.size();
  // A merged fragment joins the queue tail, which keeps its own arrival
  // timestamp (queue-wait is measured from the first fragment).
  if (!task.queue.empty() && coalesce(slots_[task.queue.tail].batch, b)) {
    release_slot(slot);
    start_or_linger(dest_task);
    return;
  }
  slots_[slot].wait_start = now();
  fifo_push(task.queue, slot);
  start_or_linger(dest_task);
}

void Engine::start_or_linger(std::size_t task_id) {
  TaskRuntime& task = tasks_[task_id];
  if (cfg_.batch_size <= 1 || cfg_.batch_linger <= 0.0 || task.busy ||
      task.queued_tuples >= cfg_.batch_size) {
    try_start(task_id);
    return;
  }
  // Partial batch at an idle task: defer the service start so fragments
  // routed from the same upstream batch (and the next few) can merge into
  // the queue tail first. One pending linger event per task; a full batch
  // arriving meanwhile starts immediately above and the stale event
  // no-ops through try_start's busy/empty guards.
  if (task.linger_pending) return;
  task.linger_pending = true;
  queue_.schedule_after(cfg_.batch_linger, [this, task_id] {
    tasks_[task_id].linger_pending = false;
    try_start(task_id);
  });
}

void Engine::try_start(std::size_t task_id) {
  TaskRuntime& task = tasks_[task_id];
  // blocked_out > 0: this task's own emits are parked on a full downstream
  // queue — stop consuming input until the credit comes back (hop-by-hop
  // backpressure propagation).
  if (task.busy || task.queue.empty() || task.blocked_out > 0) return;
  Worker& w = workers_[core_.owner(task_id)];
  if (!core_.alive(w.id)) return;  // parked on a dead worker (no survivor); restart resumes
  task.busy = true;
  const std::uint32_t slot = fifo_pop(task.queue);
  BatchSlot& s = slots_[slot];
  task.queued_tuples -= s.batch.size();
  task.in_service = s.batch.size();
  task.service_owner = w.id;
  s.owner = static_cast<std::uint32_t>(w.id);
  s.incarnation = w.incarnation;
  if (w.stall_until > now()) {
    queue_.schedule_at(w.stall_until, [this, t = static_cast<std::uint32_t>(task_id), slot] {
      begin_service(t, slot);
    });
  } else {
    begin_service(task_id, slot);
  }
}

void Engine::begin_service(std::size_t task_id, std::uint32_t slot) {
  TaskRuntime& task = tasks_[task_id];
  BatchSlot& s = slots_[slot];
  Worker& w = workers_[s.owner];
  if (w.incarnation != s.incarnation) {
    // The hosting worker crashed while this batch waited out a stall; the
    // batch was already counted lost at crash time. Nothing was started on
    // the machine yet, so there is nothing to balance.
    release_slot(slot);
    return;
  }
  if (w.stall_until > now()) {
    // The stall was extended while we waited; keep waiting.
    queue_.schedule_at(w.stall_until, [this, t = static_cast<std::uint32_t>(task_id), slot] {
      begin_service(t, slot);
    });
    return;
  }
  sim::Machine& m = machines_[w.machine];
  runtime::TupleBatch& batch = s.batch;
  const std::size_t n = batch.size();
  double wait = now() - s.wait_start;
  task.window.queue_wait += wait * static_cast<double>(n);
  w.window.queue_wait_sum += wait * static_cast<double>(n);

  // One service event per batch; the base cost accumulates over the rows
  // and the noise is drawn once per service event. At batch size 1 that is
  // exactly the historical per-tuple draw; at batch > 1 the single draw's
  // cv is scaled by 1/sqrt(n), matching (by the CLT) the aggregate
  // variability that n independent per-tuple draws would have produced —
  // and costing one set of transcendentals per batch instead of per row.
  Bolt* bolt = core_.task(task_id).bolt.get();
  double total_cost = 0.0;
  cost_probe_.stream = batch.stream;
  for (std::size_t i = 0; i < n; ++i) {
    batch.borrow_row(i, cost_probe_);
    total_cost += bolt->tuple_cost(cost_probe_);
    batch.restore_row(i, cost_probe_);
  }
  if (cfg_.service_noise_cv > 0.0) {
    if (n == 1) {
      // Exactly the historical draw (including on zero cost — the RNG
      // stream is shared, so the draw itself is part of the contract).
      total_cost = rng_service_.lognormal_with_mean(total_cost, cfg_.service_noise_cv);
    } else if (total_cost > 0.0) {
      total_cost = rng_service_.lognormal_with_mean(
          total_cost, cfg_.service_noise_cv / std::sqrt(static_cast<double>(n)));
    }
  }
  // Quasi-static processor sharing: the interference factor is sampled at
  // service start and held for this batch (service times are orders of
  // magnitude shorter than load dynamics).
  double speed = m.speed_factor(1.0);
  s.duration = total_cost * w.slowdown / speed;
  m.service_started(now());
  queue_.schedule_after(s.duration, [this, t = static_cast<std::uint32_t>(task_id), slot] {
    complete_service(t, slot);
  });
}

void Engine::complete_service(std::size_t task_id, std::uint32_t slot) {
  TaskRuntime& task = tasks_[task_id];
  BatchSlot& s = slots_[slot];
  Worker& w = workers_[s.owner];
  machines_[w.machine].service_finished(now());
  if (w.incarnation != s.incarnation) {
    // The worker crashed mid-service: the machine accounting is balanced
    // above, but the batch (already counted lost at crash time) produces
    // no acks and no downstream emits, and the task state belongs to the
    // new incarnation now.
    release_slot(slot);
    return;
  }

  runtime::TupleBatch& batch = s.batch;
  const std::size_t n = batch.size();
  const double duration = s.duration;
  task.window.executed += n;
  task.window.exec_time += duration;
  w.window.executed += n;
  w.window.exec_time_sum += duration;
  w.window.service_seconds += duration;
  totals_.tuples_executed += n;

  // Emits route from inside execute and acquire new slots; the deque slab
  // keeps this one in place.
  execute(task_id, batch, [this] { return now(); });

  // The serviced batch leaves the bounded in-queue here, where its acks
  // happened: release the credits and re-admit parked upstream batches.
  flow_.release_n(task_id, n);
  task.busy = false;
  task.in_service = 0;
  release_slot(slot);
  drain_parked(task_id);
  try_start(task_id);
}

void Engine::sample_window() {
  WindowSample sample;
  sample.tasks.reserve(tasks_.size());
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    sample.tasks.push_back(task_row(i, tasks_[i].window));
  }
  sample.workers.reserve(workers_.size());
  for (Worker& w : workers_) {
    sample.workers.push_back(
        worker_row(w.id, w.machine, core_.worker_tasks()[w.id], w.window, sample.tasks));
  }
  sample.machines.reserve(machines_.size());
  for (auto& m : machines_) {
    MachineWindowStats s;
    s.machine = m.id();
    s.cpu_util = m.drain_utilization(now());
    s.load = m.load();
    sample.machines.push_back(s);
  }
  close_window(std::move(sample), now());

  // Window-boundary callbacks (windowed aggregation emits happen here;
  // each task's coalesced emits flush before the next task's callback).
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (core_.task(i).bolt) window_callback(i, now());
  }

  fire_control();
  queue_.schedule_after(cfg_.window_seconds, [this] { sample_window(); });
}

void Engine::schedule_gc(std::size_t worker) {
  double delay = rng_service_.exponential(1.0 / cfg_.gc_interval_mean);
  queue_.schedule_after(delay, [this, worker] {
    Worker& w = workers_[worker];
    double pause = rng_service_.lognormal_with_mean(cfg_.gc_pause_mean, 0.5);
    if (core_.alive(worker)) {
      // A dead process does not pause; the draw above still happens so the
      // RNG stream (shared with service-noise sampling) stays aligned
      // between crashing and crash-free runs of the same seed only when
      // both runs schedule the same GC events — which they do.
      w.stall_until = std::max(w.stall_until, now()) + pause;
      w.window.gc_pause += pause;
    }
    schedule_gc(worker);
  });
}

void Engine::replay_root(std::size_t spout_task, Values&& values, std::size_t attempt) {
  if (attempt >= cfg_.max_replays) {
    ++totals_.replays_exhausted;
    return;
  }
  ++totals_.replays;
  // Replays re-emit one root at a time (the sweep hands them back
  // individually), so they ride a single-row batch even at batch_size > 1.
  emit_root(spout_task, std::move(values), now(), attempt + 1);
}

void Engine::crash_worker(std::size_t worker) {
  if (!core_.mark_dead(worker)) return;
  Worker& w = workers_[worker];
  ++w.incarnation;  // invalidates every in-flight service completion
  ++w.crashes;
  ++totals_.worker_crashes;
  w.slowdown = 1.0;
  w.drop_prob = 0.0;
  w.stall_until = 0.0;
  // In-flight services die with the machine running them, wherever the
  // task is hosted now: a graceful migration can leave a batch completing
  // on the task's previous host, so the wipe keys on the serving worker,
  // not the placement table. (The incarnation bump above already
  // invalidated these batches' completion events.)
  std::vector<std::size_t> interrupted;
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    TaskRuntime& task = tasks_[t];
    if (!task.busy || task.service_owner != worker) continue;
    totals_.tuples_lost += task.in_service;
    flow_.release_n(t, task.in_service);
    task.busy = false;
    task.in_service = 0;
    if (core_.owner(t) != worker) interrupted.push_back(t);
  }
  // The process also dies with everything its hosted tasks still queued.
  // A hosted task whose batch is mid-service on its previous (alive) host
  // keeps that service: the completion there balances the books.
  const std::vector<std::size_t> cleared_tasks = core_.worker_tasks()[worker];
  for (std::size_t t : cleared_tasks) {
    TaskRuntime& task = tasks_[t];
    std::size_t wiped = task.queued_tuples;
    totals_.tuples_lost += wiped;
    while (!task.queue.empty()) release_slot(fifo_pop(task.queue));
    task.queued_tuples = 0;
    flow_.release_n(t, wiped);  // the dead queue's credits come back
  }
  if (flow_.bounded()) {
    // Batches parked at emit sites inside the dead process die with it
    // (they live in its transfer layer); their roots fail at the ack
    // timeout like any crash loss. Unblock the emitters being reassigned.
    for (auto& dest : tasks_) {
      SlotFifo kept;
      while (!dest.parked.empty()) {
        const std::uint32_t slot = fifo_pop(dest.parked);
        const BatchSlot& p = slots_[slot];
        if (core_.owner(p.src_task) != worker) {
          fifo_push(kept, slot);
          continue;
        }
        totals_.tuples_lost += p.batch.size();
        TaskRuntime& src = tasks_[p.src_task];
        if (src.blocked_out > 0) --src.blocked_out;
        release_slot(slot);
      }
      dest.parked = kept;
    }
  }
  // Supervisor reassignment (shared deterministic policy, so recovered
  // routing tables match across backends). On a total outage the
  // executors stay parked on the dead worker and resume on restart.
  core_.reassign_dead(worker);
  if (flow_.bounded()) {
    // The wiped queues freed credit: re-admit tuples parked at those
    // tasks' gates (after reassignment, so transfers see the new hosts).
    for (std::size_t t : cleared_tasks) drain_parked(t);
  }
  // Tasks hosted elsewhere whose service this crash interrupted resume on
  // their own (alive) hosts.
  for (std::size_t t : interrupted) try_start(t);
}

void Engine::restart_worker(std::size_t worker) {
  // Reclaims the originally assigned executors (graceful migration: the
  // per-task queues live with the task, so queued tuples move with it; an
  // in-flight service on the interim host completes there first).
  if (!core_.restart(worker)) return;
  ++totals_.worker_restarts;
  if (!core_.worker_active(worker)) return;  // retired: rejoin the pool but host nothing
  for (std::size_t t : core_.worker_tasks()[worker]) try_start(t);
}

void Engine::add_worker(std::size_t worker) {
  if (core_.activate(worker)) ++totals_.worker_adds;
}

void Engine::retire_worker(std::size_t worker) {
  // Graceful drain via the shared deterministic policy, so the
  // post-retire routing tables match across backends.
  std::optional<std::vector<TaskMove>> drained = core_.retire(worker);
  if (!drained) return;
  if (!drained->empty()) {
    stall_migrations(*drained);
    for (const TaskMove& m : *drained) try_start(m.task);
  }
  ++totals_.worker_retires;
}

void Engine::migrate_tasks(const std::vector<TaskMove>& moves) {
  const std::vector<TaskMove> applied = core_.migrate(moves);
  if (applied.empty()) return;
  stall_migrations(applied);
  // Tuple-conserving handoff: the per-task queues travel with the task;
  // the new host resumes service on whatever is queued.
  for (const TaskMove& m : moves) try_start(m.task);
}

void Engine::stall_migrations(const std::vector<TaskMove>& applied) {
  for (const TaskMove& m : applied) {
    ++totals_.task_migrations;
    // Modeled state handoff: checkpoint on the source, restore on the
    // destination — both stall for the configured pause. Stalls
    // accumulate, so a larger rescale batch costs proportionally more.
    stall_worker(m.from_worker, cfg_.rescale_pause);
    stall_worker(m.to_worker, cfg_.rescale_pause);
  }
}

void Engine::set_link_extra_delay(std::size_t machine_a, std::size_t machine_b,
                                  double extra_seconds) {
  network_.set_link_extra_delay(machine_a, machine_b, extra_seconds);
}

void Engine::set_worker_slowdown(std::size_t worker, double factor) {
  workers_.at(worker).slowdown = std::max(1.0, factor);
}

void Engine::set_worker_drop_prob(std::size_t worker, double probability) {
  workers_.at(worker).drop_prob = std::clamp(probability, 0.0, 1.0);
}

double Engine::worker_slowdown(std::size_t worker) const {
  return workers_.at(worker).slowdown;
}

double Engine::worker_drop_prob(std::size_t worker) const {
  return workers_.at(worker).drop_prob;
}

void Engine::stall_worker(std::size_t worker, double duration) {
  Worker& w = workers_.at(worker);
  w.stall_until = std::max(w.stall_until, now()) + duration;
}

void Engine::set_machine_hog(std::size_t machine, double load) {
  machines_.at(machine).set_hog_load(now(), load);
}

void Engine::apply_fault_event(const FaultEvent& ev) {
  switch (ev.kind) {
    case FaultKind::kWorkerSlowdown:
      set_worker_slowdown(ev.target, ev.value);
      break;
    case FaultKind::kMachineHog:
      set_machine_hog(ev.target, ev.value);
      break;
    case FaultKind::kWorkerStall:
      stall_worker(ev.target, ev.value);
      break;
    case FaultKind::kWorkerDrop:
      set_worker_drop_prob(ev.target, ev.value);
      break;
    case FaultKind::kWorkerCrash:
      crash_worker(ev.target);
      break;
    case FaultKind::kWorkerRestart:
      restart_worker(ev.target);
      break;
    case FaultKind::kLinkDelay:
      set_link_extra_delay(ev.target, static_cast<std::size_t>(ev.value2), ev.value);
      break;
    case FaultKind::kWorkerRamp: {
      // Staircase ramp: 10 equal steps from the current slowdown.
      constexpr int kSteps = 10;
      double from = workers_.at(ev.target).slowdown;
      for (int s = 1; s <= kSteps; ++s) {
        double frac = static_cast<double>(s) / kSteps;
        double factor = from + (ev.value - from) * frac;
        queue_.schedule_after(ev.value2 * frac, [this, target = ev.target, factor] {
          set_worker_slowdown(target, factor);
        });
      }
      break;
    }
  }
}

void Engine::apply_fault_plan(const FaultPlan& plan) {
  for (const auto& ev : plan.events) {
    if (ev.at < now()) throw std::invalid_argument("apply_fault_plan: event in the past");
    queue_.schedule_at(ev.at, [this, ev] { apply_fault_event(ev); });
  }
}

EngineTotals Engine::totals() const {
  EngineTotals t = totals_;
  const RootTotals roots = root_totals();
  t.roots_emitted = roots.emitted;
  t.acked = roots.acked;
  t.failed = roots.failed;
  return t;
}

std::size_t Engine::queue_length_of_task(std::size_t global_task) const {
  const TaskRuntime& t = tasks_.at(global_task);
  return t.queued_tuples + t.in_service;
}

std::size_t Engine::parked_tuples() const {
  std::size_t n = 0;
  for (const auto& t : tasks_) {
    for (std::uint32_t s = t.parked.head; s != kNoSlot; s = slots_[s].next) {
      n += slots_[s].batch.size();
    }
  }
  return n;
}

}  // namespace repro::dsps

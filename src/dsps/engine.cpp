#include "dsps/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/logging.hpp"

namespace repro::dsps {

namespace {
Assignment make_assignment(const Topology& topo, const ClusterConfig& cfg) {
  if (cfg.machines == 0 || cfg.workers_per_machine == 0) {
    throw std::invalid_argument("Engine: need machines and workers");
  }
  return interleaved_schedule(topo, cfg.machines * cfg.workers_per_machine, cfg.machines);
}
}  // namespace

/// Per-task OutputCollector implementation: emits land in the task's
/// per-stream coalescing buffer (routed the moment a batch fills — which
/// at batch_size 1 is immediately, the historical behaviour) and are
/// anchored to the input tuple's root while a bolt is mid-execute.
class Engine::Collector : public runtime::TaskCollectorBase {
 public:
  Collector(Engine* engine, std::size_t task)
      : runtime::TaskCollectorBase(&engine->core_, task), engine_(engine) {}

  void emit(Values values, const std::string& stream) override {
    Tuple t;
    t.root_id = current_root_;
    t.root_emit_time = current_root_time_;
    t.stream = stream;
    t.values = std::move(values);
    engine_->buffer_emit(task_, std::move(t));
  }

  sim::SimTime now() const override { return engine_->now(); }

  void set_context(std::uint64_t root, sim::SimTime root_time) {
    current_root_ = root;
    current_root_time_ = root_time;
  }
  void clear_context() {
    current_root_ = 0;
    current_root_time_ = 0.0;
  }

 private:
  Engine* engine_;
  std::uint64_t current_root_ = 0;
  sim::SimTime current_root_time_ = 0.0;
};

Engine::Engine(Topology topology, ClusterConfig config)
    : topo_(std::move(topology)),
      cfg_(config),
      network_(config.network, config.seed),
      acker_(config.ack_timeout),
      rng_service_(config.seed, 0x51),
      rng_drop_(config.seed, 0xd1),
      assignment_(make_assignment(topo_, cfg_)),
      core_(topo_, assignment_, cfg_.seed),
      flow_(cfg_.flow, core_.task_count()),
      history_(cfg_.history_capacity) {
  if (cfg_.flow.policy == runtime::OverflowPolicy::kBlockUpstream &&
      cfg_.max_spout_pending == 0) {
    throw std::invalid_argument(
        "Engine: kBlockUpstream needs max_spout_pending > 0 — backpressure "
        "reaches the spouts through the acker's pending count");
  }
  if (cfg_.batch_size == 0) {
    throw std::invalid_argument("Engine: batch_size must be >= 1");
  }
  if (cfg_.flow.policy == runtime::OverflowPolicy::kBlockUpstream &&
      cfg_.batch_size > cfg_.flow.queue_capacity) {
    throw std::invalid_argument(
        "Engine: batch_size must be <= queue_capacity under kBlockUpstream — "
        "batches park whole, so a larger batch could never be admitted");
  }
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
  std::size_t n_workers = cfg_.machines * cfg_.workers_per_machine;
  workers_.resize(n_workers);
  for (std::size_t w = 0; w < n_workers; ++w) {
    workers_[w].id = w;
    workers_[w].machine = assignment_.worker_to_machine[w];
  }

  tasks_.resize(core_.task_count());
  for (std::size_t gid = 0; gid < tasks_.size(); ++gid) {
    tasks_[gid].collector = std::make_unique<Collector>(this, gid);
  }
  core_.open_components();

  acker_.set_on_complete([this](std::uint64_t root, double latency, std::size_t spout_task) {
    ++totals_.acked;
    ++w_topo_.acked;
    w_topo_.latency_sum += latency;
    w_topo_.latencies.push_back(latency);
    core_.task(spout_task).spout->on_ack(root);
  });
  acker_.set_on_fail([this](std::uint64_t root, std::size_t spout_task) {
    ++totals_.failed;
    ++w_topo_.failed;
    core_.task(spout_task).spout->on_fail(root);
  });
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
  if (acker_.pending_for(task) < cfg_.max_spout_pending &&
      tasks_[task].blocked_out == 0) {
    std::optional<Values> vals = spout.next(now());
    if (vals.has_value()) {
      runtime::TupleBatch batch = take_batch();
      batch.stream = kDefaultStream;
      spout_roots_.clear();
      auto pull_root = [&](Values&& v) {
        std::uint64_t root = next_tuple_id_++;
        acker_.register_root(root, now(), task);
        if (cfg_.replay_on_failure) acker_.stash_replay(root, v, 0);
        ++totals_.roots_emitted;
        ++w_topo_.roots_emitted;
        batch.push_row(0, root, now(), std::move(v));
        spout_roots_.push_back(root);
      };
      pull_root(std::move(*vals));
      // Batched pull: up to batch_size roots per poll. Every extra pull
      // consumes its own inter-arrival draw (summed into the poll delay,
      // so the offered rate is unchanged) and re-checks the pending
      // throttle, since each registered root raises the pending count.
      while (batch.size() < cfg_.batch_size &&
             acker_.pending_for(task) < cfg_.max_spout_pending) {
        delay += spout.next_delay(now());
        vals = spout.next(now());
        if (!vals.has_value()) break;
        pull_root(std::move(*vals));
      }
      route_emit_batch(task, batch);
      recycle_batch(std::move(batch));
      for (std::uint64_t root : spout_roots_) acker_.discard_if_unanchored(root, now());
    }
  } else {
    // Backpressure: pending tree limit reached; retry shortly without
    // consuming from the workload generator.
    delay = std::max(delay, 1e-3);
  }
  schedule_spout_poll(task, delay);
}

void Engine::buffer_emit(std::size_t task, Tuple&& t) {
  runtime::TupleBatch* full = tasks_[task].emits.append(std::move(t), cfg_.batch_size);
  if (full != nullptr) {
    route_emit_batch(task, *full);
    full->clear();
  }
}

void Engine::flush_emits(std::size_t task) {
  tasks_[task].emits.flush([&](runtime::TupleBatch& b) { route_emit_batch(task, b); });
}

runtime::TupleBatch Engine::take_batch() {
  if (batch_pool_.empty()) return {};
  runtime::TupleBatch b = std::move(batch_pool_.back());
  batch_pool_.pop_back();
  return b;
}

void Engine::recycle_batch(runtime::TupleBatch&& b) {
  if (batch_pool_.size() >= 1024) return;  // bound the pooled column memory
  b.clear();
  batch_pool_.push_back(std::move(b));
}

void Engine::route_emit_batch(std::size_t src_task, runtime::TupleBatch& batch) {
  if (batch.empty()) return;
  std::size_t src_worker = core_.owner(src_task);
  tasks_[src_task].window.emitted += batch.size();
  workers_[src_worker].window.emitted += batch.size();
  core_.route_batch(
      src_task, batch, route_scratch_,
      [&](std::size_t dest, const std::vector<std::uint32_t>& rows, bool may_move) {
        runtime::TupleBatch copy = take_batch();
        copy.stream = batch.stream;
        if (may_move) {
          copy.steal_rows(batch, rows);  // each row consumed once: no payload copy
        } else {
          copy.append_rows(batch, rows);
        }
        const std::size_t m = copy.size();
        for (std::size_t k = 0; k < m; ++k) copy.ids[k] = next_tuple_id_++;
        // Anchor before the admission decision: a parked or shed copy must
        // still hold the tuple tree open (park — so discard_if_unanchored
        // keeps the root; shed — so the root fails at the ack timeout and
        // at-least-once replay covers the loss).
        acker_.add_anchors(copy.root_ids.data(), copy.ids.data(), m);
        totals_.tuples_delivered += m;
        const std::size_t accepted = flow_.admit_n(dest, m);
        if (accepted == m) {
          flow_.acquire_n(dest, m);
          transfer(src_task, dest, std::move(copy));
        } else if (flow_.config().policy == runtime::OverflowPolicy::kBlockUpstream) {
          // Whole-batch park (admit_n never splits a blocked batch).
          tasks_[dest].parked.push_back({std::move(copy), src_task, now()});
          ++tasks_[src_task].blocked_out;
        } else {
          // kDropNewest: the head that fits transfers, the tail sheds —
          // accounted per tuple.
          const std::size_t shed = m - accepted;
          flow_.count_overflow_drops(dest, shed);
          totals_.tuples_dropped_overflow += shed;
          w_topo_.dropped_overflow += shed;
          if (accepted > 0) {
            copy.truncate(accepted);
            flow_.acquire_n(dest, accepted);
            transfer(src_task, dest, std::move(copy));
          } else {
            recycle_batch(std::move(copy));
          }
        }
      });
}

void Engine::transfer(std::size_t src_task, std::size_t dest, runtime::TupleBatch&& b) {
  double delay = network_.transfer_delay(workers_[core_.owner(src_task)].machine,
                                         workers_[core_.owner(dest)].machine);
  queue_.schedule_after(delay, [this, dest, moved = std::move(b)]() mutable {
    deliver(dest, std::move(moved));
  });
}

void Engine::drain_parked(std::size_t dest) {
  TaskRuntime& d = tasks_[dest];
  while (!d.parked.empty()) {
    const std::size_t m = d.parked.front().batch.size();
    if (flow_.admit_n(dest, m) != m) break;
    ParkedBatch p = std::move(d.parked.front());
    d.parked.pop_front();
    flow_.acquire_n(dest, m);
    flow_.add_stall(p.src_task, now() - p.parked_at);
    TaskRuntime& src = tasks_[p.src_task];
    if (src.blocked_out > 0) --src.blocked_out;
    transfer(p.src_task, dest, std::move(p.batch));
    // The emitter's last parked batch left: it may start service again
    // (spouts resume on their own next poll).
    if (src.blocked_out == 0) try_start(p.src_task);
  }
}

void Engine::deliver(std::size_t dest_task, runtime::TupleBatch&& b) {
  TaskRuntime& task = tasks_[dest_task];
  Worker& w = workers_[core_.owner(dest_task)];
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
        recycle_batch(std::move(b));
        return;  // never acked: the roots fail at the timeout sweep
      }
    }
  }
  task.queued_tuples += b.size();
  // Destination-side re-coalescing (batch > 1 only): routing fans each
  // batch out into per-destination fragments, so without a merge the
  // effective batch size decays by the fan-out at every hop. Fold the
  // arriving fragment into the queue tail when it fits, so service, acking
  // and the next hop's routing keep full-size batches. The tail keeps its
  // own arrival timestamp (queue-wait is measured from the first fragment).
  if (cfg_.batch_size > 1 && !task.queue.empty()) {
    runtime::TupleBatch& tail = task.queue.back().batch;
    if (tail.stream == b.stream && tail.size() + b.size() <= cfg_.batch_size) {
      tail.append_all(std::move(b));
      recycle_batch(std::move(b));
      start_or_linger(dest_task);
      return;
    }
  }
  task.queue.push_back({std::move(b), now()});
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
  QueuedBatch qb = std::move(task.queue.front());
  task.queue.pop_front();
  task.queued_tuples -= qb.batch.size();
  task.in_service = qb.batch.size();
  task.service_owner = w.id;
  std::size_t owner = w.id;
  std::uint64_t inc = w.incarnation;
  if (w.stall_until > now()) {
    queue_.schedule_at(w.stall_until, [this, task_id, owner, inc, moved = std::move(qb)]() mutable {
      begin_service(task_id, std::move(moved), owner, inc);
    });
  } else {
    begin_service(task_id, std::move(qb), owner, inc);
  }
}

void Engine::begin_service(std::size_t task_id, QueuedBatch&& qb, std::size_t owner,
                           std::uint64_t incarnation) {
  TaskRuntime& task = tasks_[task_id];
  Worker& w = workers_[owner];
  if (w.incarnation != incarnation) {
    // The hosting worker crashed while this batch waited out a stall; the
    // batch was already counted lost at crash time. Nothing was started on
    // the machine yet, so there is nothing to balance.
    return;
  }
  if (w.stall_until > now()) {
    // The stall was extended while we waited; keep waiting.
    queue_.schedule_at(w.stall_until,
                       [this, task_id, owner, incarnation, moved = std::move(qb)]() mutable {
                         begin_service(task_id, std::move(moved), owner, incarnation);
                       });
    return;
  }
  sim::Machine& m = machines_[w.machine];
  const std::size_t n = qb.batch.size();
  double wait = now() - qb.arrive;
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
  cost_probe_.stream = qb.batch.stream;
  for (std::size_t i = 0; i < n; ++i) {
    qb.batch.borrow_row(i, cost_probe_);
    total_cost += bolt->tuple_cost(cost_probe_);
    qb.batch.restore_row(i, cost_probe_);
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
  double duration = total_cost * w.slowdown / speed;
  m.service_started(now());
  sim::SimTime start = now();
  queue_.schedule_after(
      duration, [this, task_id, owner, incarnation, moved = std::move(qb), start, duration]() mutable {
        complete_service(task_id, std::move(moved), start, duration, owner, incarnation);
      });
}

void Engine::complete_service(std::size_t task_id, QueuedBatch&& qb, sim::SimTime start,
                              double duration, std::size_t owner, std::uint64_t incarnation) {
  (void)start;
  TaskRuntime& task = tasks_[task_id];
  Worker& w = workers_[owner];
  machines_[w.machine].service_finished(now());
  if (w.incarnation != incarnation) {
    // The worker crashed mid-service: the machine accounting is balanced
    // above, but the batch (already counted lost at crash time) produces
    // no acks and no downstream emits, and the task state belongs to the
    // new incarnation now.
    return;
  }

  const std::size_t n = qb.batch.size();
  task.window.executed += n;
  task.window.exec_time += duration;
  w.window.executed += n;
  w.window.exec_time_sum += duration;
  w.window.service_seconds += duration;
  totals_.tuples_executed += n;

  auto* collector = static_cast<Collector*>(task.collector.get());
  Bolt* bolt = core_.task(task_id).bolt.get();
  exec_probe_.stream = qb.batch.stream;
  for (std::size_t i = 0; i < n; ++i) {
    collector->set_context(qb.batch.root_ids[i], qb.batch.root_emit_times[i]);
    // The value row is consumed by execute (the ack below reads only the
    // id columns), so there is nothing to restore.
    qb.batch.borrow_row(i, exec_probe_);
    bolt->execute(exec_probe_, *collector);
  }
  collector->clear_context();
  // Flush the coalesced emits before acking the inputs: a root acked
  // while its children sit unanchored in an emit buffer would complete
  // its tree early. At batch size 1 the buffer flushed inside execute,
  // so this is a no-op and the order matches the historical path.
  flush_emits(task_id);
  acker_.ack_batch(qb.batch.root_ids.data(), qb.batch.ids.data(), n, now());

  // The serviced batch leaves the bounded in-queue here, where its acks
  // happened: release the credits and re-admit parked upstream batches.
  flow_.release_n(task_id, n);
  task.busy = false;
  task.in_service = 0;
  recycle_batch(std::move(qb.batch));
  drain_parked(task_id);
  try_start(task_id);
}

void Engine::sample_window() {
  WindowSample sample;
  sample.time = now();
  sample.window = cfg_.window_seconds;

  sample.tasks.reserve(tasks_.size());
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    TaskRuntime& t = tasks_[i];
    if (flow_.bounded()) {
      // Fold the flow-control layer's window accumulators into the task
      // counters the finalizer consumes.
      t.window.dropped_overflow += flow_.take_overflow_drops(i);
      t.window.bp_stall += flow_.take_stall(i);
    }
    const runtime::TaskInfo& info = core_.task(i);
    std::size_t queue_len = t.queued_tuples + t.in_service;
    sample.tasks.push_back(runtime::finalize_task_window(
        i, core_.components()[info.component].name, info.comp_index, core_.owner(i),
        t.window, queue_len));
  }

  sample.workers.reserve(workers_.size());
  for (auto& w : workers_) {
    const std::vector<std::size_t>& hosted = core_.worker_tasks()[w.id];
    std::size_t qlen = 0;
    for (std::size_t t : hosted) {
      qlen += sample.tasks[t].queue_len;
      w.window.bp_stall += sample.tasks[t].bp_stall;
    }
    sample.workers.push_back(runtime::finalize_worker_window(
        w.id, w.machine, hosted.size(), w.window, qlen, cfg_.window_seconds));
  }

  sample.machines.reserve(machines_.size());
  for (auto& m : machines_) {
    MachineWindowStats s;
    s.machine = m.id();
    s.cpu_util = m.drain_utilization(now());
    s.load = m.load();
    sample.machines.push_back(s);
  }

  acker_.sweep(now());
  sample.topology = runtime::finalize_topology_window(w_topo_, cfg_.window_seconds,
                                                      acker_.pending());

  history_.push(std::move(sample));

  // Window-boundary callbacks (windowed aggregation emits happen here;
  // each task's coalesced emits flush before the next task's callback).
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (core_.task(i).bolt) {
      auto* collector = static_cast<Collector*>(tasks_[i].collector.get());
      collector->clear_context();
      core_.task(i).bolt->on_window(now(), *collector);
      flush_emits(i);
    }
  }

  fire_control();
  queue_.schedule_after(cfg_.window_seconds, [this] { sample_window(); });
}

void Engine::fire_control() {
  if (!control_fn_ || control_interval_ <= 0.0) return;
  std::size_t every = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(control_interval_ / cfg_.window_seconds)));
  if (history_.total() % every == 0) control_fn_(*this);
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
  std::uint64_t root = next_tuple_id_++;
  acker_.register_root(root, now(), spout_task);
  acker_.stash_replay(root, values, attempt + 1);
  ++totals_.roots_emitted;
  ++w_topo_.roots_emitted;
  ++totals_.replays;
  // Replays re-emit one root at a time (the sweep hands them back
  // individually), so they ride a single-row batch even at batch_size > 1.
  runtime::TupleBatch batch = take_batch();
  batch.stream = kDefaultStream;
  batch.push_row(0, root, now(), std::move(values));
  route_emit_batch(spout_task, batch);
  recycle_batch(std::move(batch));
  acker_.discard_if_unanchored(root, now());
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
    task.queue.clear();
    task.queued_tuples = 0;
    flow_.release_n(t, wiped);  // the dead queue's credits come back
  }
  if (flow_.bounded()) {
    // Batches parked at emit sites inside the dead process die with it
    // (they live in its transfer layer); their roots fail at the ack
    // timeout like any crash loss. Unblock the emitters being reassigned.
    for (auto& dest : tasks_) {
      for (auto it = dest.parked.begin(); it != dest.parked.end();) {
        if (core_.owner(it->src_task) == worker) {
          totals_.tuples_lost += it->batch.size();
          TaskRuntime& src = tasks_[it->src_task];
          if (src.blocked_out > 0) --src.blocked_out;
          it = dest.parked.erase(it);
        } else {
          ++it;
        }
      }
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

bool Engine::worker_alive(std::size_t worker) const { return core_.worker_alive(worker); }

bool Engine::worker_active(std::size_t worker) const { return core_.worker_active(worker); }

std::vector<std::vector<std::size_t>> Engine::worker_task_snapshot() const {
  return core_.worker_tasks();
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

std::string Engine::placement_audit() const { return core_.placement_audit(); }

std::shared_ptr<DynamicRatio> Engine::dynamic_ratio(const std::string& from,
                                                    const std::string& to) const {
  return runtime::find_dynamic_ratio(topo_, from, to);
}

std::vector<runtime::DynamicEdge> Engine::dynamic_edges() const {
  return runtime::list_dynamic_edges(topo_);
}

void Engine::set_control_callback(double interval, std::function<void(Engine&)> fn) {
  control_interval_ = interval;
  control_fn_ = std::move(fn);
}

void Engine::set_control_hook(double interval, runtime::ControlSurface::ControlHook hook) {
  set_control_callback(interval, [hook = std::move(hook)](Engine& engine) { hook(engine); });
}

void Engine::set_max_spout_pending(std::size_t cap) {
  if (cfg_.flow.policy == runtime::OverflowPolicy::kBlockUpstream && cap == 0) {
    throw std::invalid_argument(
        "Engine::set_max_spout_pending: kBlockUpstream needs a cap > 0 — "
        "backpressure reaches the spouts through the acker's pending count");
  }
  cfg_.max_spout_pending = cap;
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

std::pair<std::size_t, std::size_t> Engine::tasks_of(const std::string& component) const {
  return core_.tasks_of(component);
}

std::size_t Engine::worker_of_task(std::size_t global_task) const {
  return core_.worker_of_task(global_task);
}

std::vector<std::size_t> Engine::workers_of(const std::string& component) const {
  return core_.workers_of(component);
}

std::size_t Engine::queue_length_of_task(std::size_t global_task) const {
  const TaskRuntime& t = tasks_.at(global_task);
  return t.queued_tuples + t.in_service;
}

std::size_t Engine::parked_tuples() const {
  std::size_t n = 0;
  for (const auto& t : tasks_) {
    for (const auto& p : t.parked) n += p.batch.size();
  }
  return n;
}

}  // namespace repro::dsps

#include "runtime/data_path.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace repro::runtime {

namespace {
dsps::Assignment make_assignment(const dsps::Topology& topo, std::size_t workers,
                                 std::size_t machines) {
  if (workers == 0) throw std::invalid_argument("engine: need at least one worker");
  return dsps::interleaved_schedule(topo, workers, machines);
}

bool any_anchored(const TupleBatch& batch) {
  return std::any_of(batch.root_ids.begin(), batch.root_ids.end(),
                     [](std::uint64_t root) { return root != 0; });
}
}  // namespace

template <typename Lock>
DataPath<Lock>::DataPath(dsps::Topology topology, std::size_t workers, std::size_t machines,
                         std::uint64_t route_seed, DataPathConfig config)
    : topo_(std::move(topology)),
      assignment_(make_assignment(topo_, workers, machines)),
      path_cfg_(std::move(config)),
      core_(topo_, assignment_, route_seed),
      flow_(path_cfg_.flow, core_.task_count()),
      acker_(path_cfg_.ack_timeout),
      history_(path_cfg_.history_capacity) {
  if (path_cfg_.flow.policy == OverflowPolicy::kBlockUpstream &&
      path_cfg_.max_spout_pending == 0) {
    throw std::invalid_argument(
        "engine: kBlockUpstream needs max_spout_pending > 0 — backpressure reaches the "
        "spouts through the acker's pending count");
  }
  if (path_cfg_.batch_size == 0) {
    throw std::invalid_argument("engine: batch_size must be >= 1");
  }
  if (path_cfg_.flow.policy == OverflowPolicy::kBlockUpstream &&
      path_cfg_.batch_size > path_cfg_.flow.queue_capacity) {
    throw std::invalid_argument(
        "engine: batch_size must be <= queue_capacity under kBlockUpstream — batches park "
        "whole, so a larger batch could never be admitted");
  }
  spout_cap_.store(path_cfg_.max_spout_pending, std::memory_order_relaxed);
  paths_.reserve(core_.task_count());
  for (std::size_t task = 0; task < core_.task_count(); ++task) paths_.emplace_back(this, task);

  acker_.set_on_complete([this](std::uint64_t root, double latency, std::size_t spout_task) {
    ++w_topo_.acked;
    w_topo_.latency_sum += latency;
    w_topo_.latencies.push_back(latency);
    ++roots_.acked;
    roots_.latency_sum += latency;
    root_done(root, spout_task, true);
  });
  acker_.set_on_fail([this](std::uint64_t root, std::size_t spout_task) {
    ++w_topo_.failed;
    ++roots_.failed;
    root_done(root, spout_task, false);
  });
  core_.open_components();
}

// --- surface and counters -----------------------------------------------------

template <typename Lock>
std::vector<std::vector<std::size_t>> DataPath<Lock>::worker_task_snapshot() const {
  std::lock_guard<Lock> lock(placement_lock_);
  return core_.worker_tasks();
}

template <typename Lock>
std::string DataPath<Lock>::placement_audit() const {
  std::lock_guard<Lock> lock(placement_lock_);
  return core_.placement_audit();
}

template <typename Lock>
void DataPath<Lock>::set_control_hook(double interval, ControlHook hook) {
  control_interval_ = interval;
  control_hook_ = std::move(hook);
}

template <typename Lock>
void DataPath<Lock>::set_max_spout_pending(std::size_t cap) {
  if (path_cfg_.flow.policy == OverflowPolicy::kBlockUpstream && cap == 0) {
    throw std::invalid_argument(
        "set_max_spout_pending: kBlockUpstream needs a cap > 0 — backpressure reaches the "
        "spouts through the acker's pending count");
  }
  spout_cap_.store(cap, std::memory_order_relaxed);
}

template <typename Lock>
std::size_t DataPath<Lock>::pending_roots() const {
  std::lock_guard<Lock> lock(acker_lock_);
  return acker_.pending();
}

template <typename Lock>
typename DataPath<Lock>::RootTotals DataPath<Lock>::root_totals() const {
  std::lock_guard<Lock> lock(acker_lock_);
  return roots_;
}

// --- emit side ----------------------------------------------------------------

template <typename Lock>
void DataPath<Lock>::Collector::emit(dsps::Values values, const std::string& stream) {
  dsps::Tuple t;
  t.root_id = root_;
  t.root_emit_time = root_time_;
  t.stream = stream;
  t.values = std::move(values);
  path_->buffer_emit(task_, std::move(t));
}

template <typename Lock>
void DataPath<Lock>::buffer_emit(std::size_t task, dsps::Tuple&& t) {
  TupleBatch* full = paths_[task].emits.append(std::move(t), path_cfg_.batch_size);
  if (full != nullptr) {
    route(task, *full);
    full->clear();
  }
}

template <typename Lock>
void DataPath<Lock>::flush(std::size_t task) {
  paths_[task].emits.flush([&](TupleBatch& b) { route(task, b); });
}

template <typename Lock>
TupleBatch& DataPath<Lock>::copy_buffer(std::size_t src_task) {
  TupleBatch& copy = paths_[src_task].copy;
  copy.clear();
  return copy;
}

template <typename Lock>
void DataPath<Lock>::route(std::size_t src_task, TupleBatch& batch) {
  if (batch.empty()) return;
  count_emitted(src_task, batch.size());
  core_.route_batch(
      src_task, batch, paths_[src_task].route,
      [&](std::size_t dest, const std::vector<std::uint32_t>& rows, bool may_move) {
        TupleBatch& copy = copy_buffer(src_task);
        copy.stream = batch.stream;
        if (may_move) {
          copy.steal_rows(batch, rows);  // each row consumed once: no payload copy
        } else {
          copy.append_rows(batch, rows);
        }
        const std::size_t m = copy.size();
        {
          std::lock_guard<Lock> lock(acker_lock_);
          for (std::size_t k = 0; k < m; ++k) copy.ids[k] = next_id_ + k;
          next_id_ += m;
          // Anchor before the admission decision: a parked copy must keep
          // its root pending (so discard_if_unanchored leaves it), and a
          // shed one too (so the root fails at the ack timeout and
          // at-least-once replay covers the loss).
          acker_.add_anchors(copy.root_ids.data(), copy.ids.data(), m);
        }
        admit(src_task, dest, copy);
      });
}

template <typename Lock>
bool DataPath<Lock>::pull_roots(std::size_t task, double now, double& delay) {
  const std::size_t cap = spout_cap_.load(std::memory_order_relaxed);
  std::size_t pending = 0;
  {
    std::lock_guard<Lock> lock(acker_lock_);
    pending = acker_.pending_for(task);
  }
  if (pending >= cap) return false;
  const std::size_t budget = std::min(cap - pending, path_cfg_.batch_size);
  dsps::Spout& spout = *core_.task(task).spout;
  TupleBatch& batch = paths_[task].pull;
  while (batch.size() < budget) {
    if (!batch.empty()) delay += spout.next_delay(now);
    std::optional<dsps::Values> values = spout.next(now);
    if (!values.has_value()) break;
    batch.push_row(0, 0, now, std::move(*values));
  }
  emit_roots(task, batch, now, 0);
  return true;
}

template <typename Lock>
void DataPath<Lock>::emit_root(std::size_t task, dsps::Values&& values, double now,
                               std::size_t attempt) {
  TupleBatch& batch = paths_[task].pull;
  batch.push_row(0, 0, now, std::move(values));
  emit_roots(task, batch, now, attempt);
}

template <typename Lock>
void DataPath<Lock>::emit_roots(std::size_t task, TupleBatch& batch, double now,
                                std::size_t attempt) {
  const std::size_t n = batch.size();
  if (n == 0) return;
  {
    std::lock_guard<Lock> lock(acker_lock_);
    const std::uint64_t base = next_id_;
    next_id_ += n;
    for (std::size_t i = 0; i < n; ++i) {
      batch.root_ids[i] = base + i;
      acker_.register_root(base + i, now, task);
      if (path_cfg_.replay_on_failure) acker_.stash_replay(base + i, batch.values[i], attempt);
    }
    w_topo_.roots_emitted += n;
    roots_.emitted += n;
  }
  route(task, batch);
  {
    std::lock_guard<Lock> lock(acker_lock_);
    for (std::size_t i = 0; i < n; ++i) acker_.discard_if_unanchored(batch.root_ids[i], now);
  }
  batch.clear();
}

// --- ack side -----------------------------------------------------------------

template <typename Lock>
void DataPath<Lock>::ack(const TupleBatch& batch, double now) {
  if (!any_anchored(batch)) return;
  std::lock_guard<Lock> lock(acker_lock_);
  acker_.ack_batch(batch.root_ids.data(), batch.ids.data(), batch.size(), now);
}

template <typename Lock>
void DataPath<Lock>::window_callback(std::size_t task, double now) {
  Collector& collector = paths_[task].collector;
  collector.clear_context();
  core_.task(task).bolt->on_window(now, collector);
  flush(task);
}

template <typename Lock>
bool DataPath<Lock>::coalesce(TupleBatch& tail, TupleBatch& fragment) const {
  if (path_cfg_.batch_size <= 1 || tail.stream != fragment.stream ||
      tail.size() + fragment.size() > path_cfg_.batch_size) {
    return false;
  }
  tail.append_all(std::move(fragment));
  return true;
}

// --- window tail --------------------------------------------------------------

template <typename Lock>
dsps::TaskWindowStats DataPath<Lock>::task_row(std::size_t task, TaskCounters& c) {
  if (flow_.bounded()) {
    c.dropped_overflow += flow_.take_overflow_drops(task);
    c.bp_stall += flow_.take_stall(task);
  }
  const TaskInfo& info = core_.task(task);
  return finalize_task_window(task, core_.components()[info.component].name, info.comp_index,
                              core_.owner(task), c, queue_length_of_task(task));
}

template <typename Lock>
dsps::WorkerWindowStats DataPath<Lock>::worker_row(
    std::size_t worker, std::size_t machine, const std::vector<std::size_t>& hosted,
    WorkerCounters& c, const std::vector<dsps::TaskWindowStats>& tasks) {
  std::size_t queue_len = 0;
  for (std::size_t t : hosted) {
    queue_len += tasks[t].queue_len;
    c.bp_stall += tasks[t].bp_stall;
  }
  return finalize_worker_window(worker, machine, hosted.size(), c, queue_len,
                                path_cfg_.window_seconds);
}

template <typename Lock>
void DataPath<Lock>::close_window(dsps::WindowSample&& sample, double now) {
  sample.time = now;
  sample.window = path_cfg_.window_seconds;
  {
    std::lock_guard<Lock> lock(acker_lock_);
    // The acker's one sweep site: roots older than the ack timeout fail
    // here, once per window, on both engines.
    acker_.sweep(now);
    // Sheds since the last close, including any that replays made during
    // the sweep above.
    const std::uint64_t shed = flow_.total_dropped_overflow();
    w_topo_.dropped_overflow = shed - shed_at_close_;
    shed_at_close_ = shed;
    sample.topology =
        finalize_topology_window(w_topo_, path_cfg_.window_seconds, acker_.pending());
  }
  history_.push(std::move(sample));
}

template <typename Lock>
void DataPath<Lock>::fire_control() {
  if (!control_hook_ || control_interval_ <= 0.0) return;
  const std::size_t every = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(control_interval_ / path_cfg_.window_seconds)));
  if (history_.total() % every == 0) control_hook_(*this);
}

template class DataPath<NoLock>;
template class DataPath<std::mutex>;

}  // namespace repro::runtime

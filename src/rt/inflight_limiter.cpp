#include "rt/inflight_limiter.hpp"

namespace repro::rt {

InflightLimiter::InflightLimiter(runtime::FlowControl& flow, std::size_t task_count)
    : flow_(flow), gate_(new std::atomic<std::size_t>[task_count]) {
  dests_.reserve(task_count);
  for (std::size_t i = 0; i < task_count; ++i) {
    dests_.push_back(std::make_unique<DestState>());
    gate_[i].store(0, std::memory_order_relaxed);
  }
}

void InflightLimiter::gate_up(std::size_t src) {
  if (gate_[src].fetch_add(1, std::memory_order_acq_rel) == 0) {
    suspends_.fetch_add(1, std::memory_order_relaxed);
  }
}

void InflightLimiter::gate_down(std::size_t src) {
  // seq_cst: the releasing side of the suspend handshake, ordered before
  // resume()'s state load (see the EventLoop constructor).
  if (gate_[src].fetch_sub(1, std::memory_order_seq_cst) == 1) {
    resumes_.fetch_add(1, std::memory_order_relaxed);
    resume_(src);
  }
}

bool InflightLimiter::admit_or_park(std::size_t src, std::size_t dest,
                                    runtime::TupleBatch&& batch) {
  const std::size_t n = batch.size();
  DestState& d = *dests_[dest];
  std::lock_guard<std::mutex> lk(d.mutex);
  // FIFO: while anything is parked toward this destination, later batches
  // queue behind it even if the credits would fit them — delivery order is
  // park order, never credit-availability order.
  if (d.fifo.empty() && flow_.admit_n(dest, n) == n) {
    flow_.acquire_n(dest, n);
    deliver_(src, dest, std::move(batch));
    return true;
  }
  parked_tuples_.fetch_add(n, std::memory_order_relaxed);
  gate_up(src);
  d.fifo.push_back(Parked{src, std::move(batch), std::chrono::steady_clock::now()});
  return false;
}

void InflightLimiter::on_release(std::size_t dest) {
  DestState& d = *dests_[dest];
  std::lock_guard<std::mutex> lk(d.mutex);
  while (!d.fifo.empty()) {
    Parked& head = d.fifo.front();
    const std::size_t n = head.batch.size();
    if (flow_.admit_n(dest, n) != n) break;  // whole batches only, in order
    flow_.acquire_n(dest, n);
    const std::size_t src = head.src;
    const double stalled =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - head.parked_at)
            .count();
    runtime::TupleBatch batch = std::move(head.batch);
    d.fifo.pop_front();
    parked_tuples_.fetch_sub(n, std::memory_order_relaxed);
    flow_.add_stall(src, stalled);
    deliver_(src, dest, std::move(batch));
    gate_down(src);
  }
}

}  // namespace repro::rt

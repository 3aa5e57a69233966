#pragma once
// The async backend's home for the runtime::FlowControl credits.
//
// Under kBlockUpstream no thread ever blocks on a full queue. A batch that
// does not fit is parked in a per-destination FIFO, the emitting task is
// gated (its scheduler step returns kSuspend, so it stops consuming input
// / polling the workload), and the next credit release on that
// destination — wired through FlowControl's release listener — delivers
// the parked batches in order and resumes the emitters whose last parked
// batch drained. There is nothing for a thread wait cycle to deadlock and
// no escape valve that can overshoot the queue bound.
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "runtime/flow_control.hpp"
#include "runtime/tuple_batch.hpp"

namespace repro::rt {

class InflightLimiter {
 public:
  /// Deliver an admitted batch (credits already acquired): push it into
  /// the destination's in-queue and notify the destination task. Called
  /// with the destination's limiter mutex held; must not re-enter the
  /// limiter.
  using DeliverFn =
      std::function<void(std::size_t src, std::size_t dest, runtime::TupleBatch&&)>;
  /// Re-queue a suspended emitter task (EventLoop::resume).
  using ResumeFn = std::function<void(std::size_t task)>;

  InflightLimiter(runtime::FlowControl& flow, std::size_t task_count);

  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }
  void set_resume(ResumeFn fn) { resume_ = std::move(fn); }

  /// kBlockUpstream admission of a whole batch from `src` toward `dest`:
  /// acquires credits and delivers inline when the batch fits AND nothing
  /// older is parked (FIFO — later batches never overtake a parked one),
  /// otherwise parks the batch and gates `src`. Returns true when
  /// delivered, false when parked (the caller's step should finish its
  /// current work and return kSuspend once it sees gated()).
  bool admit_or_park(std::size_t src, std::size_t dest, runtime::TupleBatch&& batch);

  /// FlowControl release listener: credits returned to `dest` — deliver as
  /// many parked batches as now fit (in park order, whole batches only)
  /// and resume emitters whose last parked batch drained.
  void on_release(std::size_t dest);

  /// True while `src` has at least one parked batch anywhere: the task
  /// must not consume more input or poll the workload. seq_cst, paired
  /// with gate_down's decrement: this is the condition the event loop
  /// re-checks after suspending a task (the EventLoop constructor).
  bool gated(std::size_t src) const {
    return gate_[src].load(std::memory_order_seq_cst) > 0;
  }

  std::size_t parked_tuples() const { return parked_tuples_.load(std::memory_order_relaxed); }
  std::uint64_t suspends() const { return suspends_.load(std::memory_order_relaxed); }
  std::uint64_t resumes() const { return resumes_.load(std::memory_order_relaxed); }

 private:
  struct Parked {
    std::size_t src;
    runtime::TupleBatch batch;
    std::chrono::steady_clock::time_point parked_at;
  };
  struct DestState {
    std::mutex mutex;
    std::deque<Parked> fifo;
  };

  /// Gate bookkeeping for one parked batch of `src` draining (or being
  /// parked: +1). On the 1->0 edge the emitter is resumed.
  void gate_up(std::size_t src);
  void gate_down(std::size_t src);

  runtime::FlowControl& flow_;
  std::vector<std::unique_ptr<DestState>> dests_;
  std::unique_ptr<std::atomic<std::size_t>[]> gate_;
  DeliverFn deliver_;
  ResumeFn resume_;

  std::atomic<std::size_t> parked_tuples_{0};
  std::atomic<std::uint64_t> suspends_{0};
  std::atomic<std::uint64_t> resumes_{0};
};

}  // namespace repro::rt

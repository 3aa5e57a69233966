#pragma once
// The bounded data path: shared backpressure & flow-control spine under
// both engines. Every executor in-queue is governed by one FlowControl
// instance — bounded per-task occupancy with a configurable overflow
// policy, plus the loss/stall accounting the control plane and the chaos
// invariants read.
//
// Occupancy of a task counts every tuple that has been *admitted* toward
// the task and not yet finished: in network flight, queued, or in
// service. Admission happens at the emit site (sender-side credit, like
// Storm's bounded receive queues seen from the transfer layer), so the
// observable queue depth of a task never exceeds the configured capacity.
//
// Policies:
//   kUnbounded     — today-compatible default: admit() always accepts and
//                    no occupancy accounting runs; engines keep their
//                    historical byte-identical behaviour.
//   kBlockUpstream — a full destination parks the tuple at the emit site
//                    and stalls the emitting task (the simulator replays
//                    the parked tuple on the next credit release; the
//                    async runtime parks it in rt::InflightLimiter and
//                    suspends the emitting task). Backpressure propagates
//                    hop by hop until the spouts stop consuming from the
//                    workload.
//   kDropNewest    — a full destination sheds the newly arriving tuple;
//                    the loss is counted per task (tuples_dropped_overflow)
//                    and the root fails at the ack-timeout sweep, so
//                    at-least-once replay still covers the loss.
//
// Thread-safety: counters are relaxed atomics so the async runtime can
// update them from loop threads; the simulator's single-threaded event
// context pays only uncontended atomic ops. The admit/acquire pair is NOT
// atomic as a unit — the simulator is single-threaded so it composes
// exactly, and the async runtime admits under a per-destination mutex
// (the queue mutex for kDropNewest, the limiter's for kBlockUpstream).
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace repro::runtime {

enum class OverflowPolicy {
  kUnbounded,      ///< no per-queue bound (historical behaviour)
  kBlockUpstream,  ///< full queue stalls the emitter (lossless backpressure)
  kDropNewest,     ///< full queue sheds the arriving tuple (loss accounted)
};

const char* overflow_policy_name(OverflowPolicy policy);
/// Parse "unbounded" | "block" | "drop" (the CLI flag spellings). Throws
/// std::invalid_argument naming the unknown spelling.
OverflowPolicy parse_overflow_policy(const std::string& name);

struct FlowControlConfig {
  /// Per-task in-queue capacity (admitted tuples: in flight + queued + in
  /// service). Ignored under kUnbounded; must be > 0 otherwise.
  std::size_t queue_capacity = 0;
  OverflowPolicy policy = OverflowPolicy::kUnbounded;

  bool bounded() const { return policy != OverflowPolicy::kUnbounded; }

  /// Reject inconsistent configurations: a bounded policy with zero
  /// capacity, or a capacity with no policy to enforce it. Throws
  /// std::invalid_argument with a diagnostic.
  void validate() const;
};

/// Which engine drives the topology: the deterministic discrete-event
/// simulator or the event-loop async engine (wall clock).
enum class BackendKind { kSim, kAsync };

const char* backend_kind_name(BackendKind backend);
/// Parse "sim" | "async" (the CLI flag spellings). Throws
/// std::invalid_argument naming the unknown spelling; the removed
/// thread-per-worker "rt" backend is rejected with a pointer to "async".
BackendKind parse_backend_kind(const std::string& name);

/// Per-task flow-control state shared by both engines: admission
/// decisions against the configured capacity, occupancy (credit)
/// accounting, and overflow-loss / backpressure-stall counters surfaced
/// through WindowSample and the chaos invariants.
class FlowControl {
 public:
  enum class Admit {
    kAccept,  ///< take a credit (acquire) and deliver
    kBlock,   ///< kBlockUpstream and the task is full: park the tuple
    kDrop,    ///< kDropNewest and the task is full: shed the tuple
  };

  FlowControl(FlowControlConfig config, std::size_t task_count);

  FlowControl(const FlowControl&) = delete;
  FlowControl& operator=(const FlowControl&) = delete;

  const FlowControlConfig& config() const { return cfg_; }
  bool bounded() const { return cfg_.bounded(); }
  std::size_t task_count() const { return tasks_.size(); }

  /// Admission decision for one more tuple toward `task`. Under
  /// kUnbounded this is always kAccept and occupancy is not consulted.
  Admit admit(std::size_t task) const;

  /// Batch admission: how many of `n` more tuples toward `task` may be
  /// admitted right now. kUnbounded: all `n`. kBlockUpstream: `n` if the
  /// whole batch fits, else 0 — batches park whole and drain whole, so a
  /// blocked batch is never split (requires batch size <= capacity for
  /// liveness; the engines validate that at construction). kDropNewest:
  /// the head that fits — the caller sheds the `n - admit_n` tail and
  /// accounts each shed tuple via count_overflow_drops. At n == 1 every
  /// policy degenerates to admit().
  std::size_t admit_n(std::size_t task, std::size_t n) const;

  // --- occupancy (credit) accounting -----------------------------------
  /// Take a credit after a kAccept decision (no-ops under kUnbounded, so
  /// the historical hot path stays untouched).
  void acquire(std::size_t task);
  /// Take `n` credits at once (an admitted batch, or its admitted head).
  void acquire_n(std::size_t task, std::size_t n);
  /// Release one credit: the admitted tuple finished service, was dropped
  /// by a fault, or was destroyed by a crash.
  void release(std::size_t task);
  /// Crash path: release `n` credits at once (the dead worker's queue).
  void release_n(std::size_t task, std::size_t n);
  std::size_t occupancy(std::size_t task) const;

  /// Suspend/resume bridge for event-loop backends: invoked after every
  /// release/release_n with (task, credits returned), so an inflight
  /// limiter can drain batches parked behind that task and resume the
  /// suspended emitters. Set once before the engine starts (not
  /// thread-safe against concurrent releases); never fires under
  /// kUnbounded. The simulator leaves it unset and pays one untaken
  /// branch.
  void set_release_listener(std::function<void(std::size_t, std::size_t)> listener);

  // --- loss / stall accounting -----------------------------------------
  // Window accumulators are drained by the engines' metrics samplers into
  // WindowSample (take_*); lifetime totals feed run summaries and the
  // chaos conservation invariant.
  void count_overflow_drop(std::size_t task);
  /// Account `n` tuples shed at once (the tail of a partially admitted
  /// batch under kDropNewest) — exactly n per-tuple drops, one counter op.
  void count_overflow_drops(std::size_t task, std::uint64_t n);
  std::uint64_t dropped_overflow(std::size_t task) const;  ///< lifetime
  std::uint64_t total_dropped_overflow() const;
  /// Drain the task's overflow-drop window accumulator.
  std::uint64_t take_overflow_drops(std::size_t task);
  /// Accumulate backpressure-stall time experienced by `task` as an
  /// emitter (seconds its parked tuples waited for downstream credit).
  void add_stall(std::size_t task, double seconds);
  double stall_seconds(std::size_t task) const;  ///< lifetime
  double total_stall_seconds() const;
  /// Drain the task's stall window accumulator.
  double take_stall(std::size_t task);

 private:
  struct TaskState {
    std::atomic<std::size_t> occupancy{0};
    std::atomic<std::uint64_t> dropped_overflow{0};        ///< window accumulator
    std::atomic<std::uint64_t> dropped_overflow_total{0};  ///< lifetime
    std::atomic<std::uint64_t> stall_ns{0};                ///< window accumulator
    std::atomic<std::uint64_t> stall_ns_total{0};          ///< lifetime
  };

  FlowControlConfig cfg_;
  std::vector<std::unique_ptr<TaskState>> tasks_;
  std::function<void(std::size_t, std::size_t)> release_listener_;
};

}  // namespace repro::runtime

#pragma once
// Work-stealing ready-queue scheduler for the async backend.
//
// Executors are *tasks*, not threads: an executor becomes runnable when an
// enqueue event notifies it, runs a bounded step on a loop thread, and goes
// back to idle (or suspends on backpressure) instead of parking a dedicated
// thread on a per-queue condition variable. The loop keeps per-thread local
// run queues plus a global lock-free MPSC injector for notifications
// arriving from outside the loop, and drives deadlines (spout pacing,
// window ticks) through a hashed timer wheel so a sleeping loop thread
// wakes exactly when the next deadline is due.
//
// Locality first: a task notified from a loop thread joins that thread's
// own queue, so a batch's values, acker entries and frees stay on the core
// that produced them. A peer steals a queued task only once it has waited
// kStealAge. One parked thread at most, the watcher, bounds its sleep by
// the oldest queued task's stamp plus that age, so work stuck behind a long
// step is still taken; the other parked threads sleep until a timer or an
// injector push. A local push wakes a sleeper only when nobody watches.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace repro::rt {

/// Lifetime scheduler counters, drained incrementally by the engine's
/// metrics thread and surfaced through ControlSurface/RtTotals.
struct EventLoopStats {
  std::uint64_t wakeups_productive = 0;  ///< thread wakeups that found work
  std::uint64_t wakeups_spurious = 0;    ///< thread wakeups that found none
  std::uint64_t steals = 0;              ///< tasks taken from another thread's queue
  std::uint64_t watch_pokes = 0;         ///< sleepers poked to watch the queues
  std::size_t ready_peak = 0;            ///< peak ready-queue depth observed
};

/// Hashed timer wheel: O(1) schedule, slot-granular expiry scan. Entries
/// whose deadline lands beyond one wheel revolution stay in their slot and
/// are re-examined on each pass (deadline is stored per entry, so a long
/// timer simply survives intermediate visits). Not thread-safe by itself;
/// EventLoop guards it with the sleep mutex.
class TimerWheel {
 public:
  using Clock = std::chrono::steady_clock;

  TimerWheel(Clock::duration slot_width, std::size_t slot_count);

  void schedule(std::uint32_t task, Clock::time_point when);
  /// Moves every entry due at `now` into `due`. Returns the earliest
  /// pending deadline among the remaining entries (Clock::time_point::max()
  /// when the wheel is empty).
  Clock::time_point advance(Clock::time_point now, std::vector<std::uint32_t>& due);
  bool empty() const { return count_ == 0; }

 private:
  struct Entry {
    std::uint32_t task;
    Clock::time_point when;
  };

  std::size_t slot_of(Clock::time_point when) const;

  Clock::duration slot_width_;
  std::vector<std::vector<Entry>> slots_;
  Clock::time_point last_advance_;
  std::size_t count_ = 0;
};

/// The event loop proper. Task ids are dense [0, task_count).
class EventLoop {
 public:
  using Clock = std::chrono::steady_clock;

  /// What a task step tells the scheduler to do next.
  enum class StepResult : std::uint8_t {
    kIdle,     ///< nothing left to do; next notify() re-queues the task
    kYield,    ///< more input pending; re-queue at the back (fairness)
    kSuspend,  ///< backpressure-gated; only resume() re-queues the task
  };

  /// How long a task waits in its notifier's queue before a peer may steal
  /// it. Long enough that the notifier almost always runs the task itself,
  /// short enough that a task queued behind a long step moves. On
  /// perfbench's live workloads (Release, shared 4-vCPU VM) steps averaged
  /// 6.6 us (live-saturate) and 3.5 us (live-steady), and 99.85% of them
  /// ended within 50 us. No other age was tried.
  static constexpr Clock::duration kStealAge = std::chrono::microseconds(50);

  /// Bounded task step: (task id, loop-thread index) -> what next.
  using RunFn = std::function<StepResult(std::uint32_t, std::size_t)>;
  /// Is the task still blocked? Re-checked right after a kSuspend step
  /// has parked it.
  using SuspendCheck = std::function<bool(std::uint32_t)>;

  /// `still_suspended` closes the suspend/resume race. A step reads its
  /// wake condition (e.g. a backpressure gate) after publishing kRunning,
  /// while the releasing side clears the condition and then reads the
  /// task state in resume(): a store-buffering pattern in which both reads
  /// can be stale, so resume() sees the task still queued and does nothing
  /// while the step still sees the old condition and suspends for good.
  /// So the kSuspended transition is a seq_cst RMW followed by
  /// `still_suspended(task)`; when that reads the condition already
  /// cleared, the task resumes itself. The check must read the condition
  /// seq_cst and the releasing side must clear it seq_cst before calling
  /// resume(): in the single order of those four seq_cst operations,
  /// either the check sees the clear or resume() sees kSuspended. Only
  /// kSuspend steps pay for it. A task that stays suspended until an
  /// explicit resume() has a check that always returns true.
  EventLoop(std::size_t threads, std::size_t task_count, RunFn run,
            SuspendCheck still_suspended);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  void start();
  void stop();

  /// Make `task` runnable (enqueue event / window tick / poll). Deduped by
  /// the per-task state machine: a queued task is not queued twice, a
  /// running task is flagged to re-run, a suspended task ignores plain
  /// notifies (only resume() clears a suspension).
  void notify(std::uint32_t task);

  /// Clear a suspension and re-queue the task. Safe to call concurrently
  /// with the task's own suspend transition: a resume that lands while the
  /// step is still finishing converts into a re-run flag, so the wakeup is
  /// never lost.
  void resume(std::uint32_t task);

  /// Arm a deadline: when it expires, the task is notify()-ed. Multiple
  /// pending deadlines per task are allowed; stale ones deliver a spurious
  /// (harmless, deduped) notify.
  void schedule_at(std::uint32_t task, Clock::time_point when);

  std::size_t threads() const { return threads_; }
  /// Approximate number of currently queued (runnable, not running) tasks.
  std::size_t ready_depth() const { return ready_count_.load(std::memory_order_relaxed); }
  EventLoopStats stats() const;

 private:
  enum State : std::uint8_t {
    kIdle = 0,
    kQueued,
    kRunning,
    kRunningNotified,  ///< notify()/resume() landed mid-step: re-queue after
    kSuspended,
  };

  static constexpr std::uint32_t kNil = 0xffffffffu;
  /// watcher_ values besides a thread slot: nobody watches, or a sleeper
  /// was poked to take the watch and has not parked again yet.
  static constexpr std::size_t kNoWatcher = ~std::size_t{0};
  static constexpr std::size_t kWatchPoked = ~std::size_t{0} - 1;

  struct Queued {
    std::uint32_t task;
    Clock::time_point since;  ///< when it joined this queue (steal age)
  };

  struct LocalQueue {
    std::mutex mutex;
    std::deque<Queued> tasks;
  };

  void push_ready(std::uint32_t task);
  bool pop_ready(std::size_t self, Clock::time_point now, std::uint32_t& task);
  /// Drain the MPSC injector stack into `self`'s local queue (FIFO order).
  bool drain_injector(std::size_t self);
  /// Take the front task of a peer's queue that has waited kStealAge.
  bool steal(std::size_t self, Clock::time_point now, std::uint32_t& task);
  /// The earliest stamp among the front tasks of `self`'s peers' queues;
  /// false when they are all empty.
  bool oldest_peer_front(std::size_t self, Clock::time_point& since);
  /// Called under sleep_mutex_ by a parking thread: true when it holds the
  /// watch and must wake by `until` to look at its peers' queues.
  bool take_watch(std::size_t self, Clock::time_point now, Clock::time_point& until);
  /// A thread about to run a task gives up the watch it holds (or the
  /// poke it answered), handing it to a sleeper when tasks stay queued.
  void leave_watch(std::size_t self, bool just_woke);
  /// Poke a sleeper to take the watch, unless a thread holds it already.
  void request_watch();
  void poke_sleeper();
  void run_task(std::uint32_t task, std::size_t self);
  void thread_main(std::size_t self);
  /// Fire every due timer (notify()s the owners) and refresh the cached
  /// next-deadline hint. Must be called WITHOUT sleep_mutex_ held.
  void fire_timers(Clock::time_point now);

  std::size_t threads_;
  std::size_t task_count_;
  RunFn run_;
  SuspendCheck still_suspended_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> state_;

  // Global injector: intrusive Treiber stack over task ids. A task id can
  // be pushed at most once at a time (the state machine guarantees it), so
  // next_[task] is free whenever the task is not in the stack and the
  // classic ABA pitfall does not arise for the single-swap consumers below:
  // consumers take the whole stack with exchange(kNil) rather than popping
  // one node CAS-by-CAS.
  std::unique_ptr<std::atomic<std::uint32_t>[]> injector_next_;
  std::atomic<std::uint32_t> injector_head_{kNil};

  std::vector<std::unique_ptr<LocalQueue>> local_;
  std::atomic<std::size_t> ready_count_{0};
  std::atomic<std::size_t> ready_peak_{0};

  // Sleep/wake (eventcount-lite) + timers.
  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  std::atomic<std::size_t> sleepers_{0};       // modified under sleep_mutex_
  // Who watches the queues: a slot, kNoWatcher or kWatchPoked. Taken only
  // under sleep_mutex_ by a parking thread.
  std::atomic<std::size_t> watcher_{kNoWatcher};
  TimerWheel wheel_;                           // guarded by sleep_mutex_
  std::vector<std::uint32_t> due_scratch_;     // guarded by sleep_mutex_
  std::atomic<std::int64_t> next_timer_ns_{std::numeric_limits<std::int64_t>::max()};

  std::atomic<bool> running_{false};
  std::vector<std::thread> workers_;

  std::atomic<std::uint64_t> wakeups_productive_{0};
  std::atomic<std::uint64_t> wakeups_spurious_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> watch_pokes_{0};
};

}  // namespace repro::rt

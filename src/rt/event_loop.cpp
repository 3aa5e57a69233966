#include "rt/event_loop.hpp"

#include <algorithm>

namespace repro::rt {
namespace {

// Which loop (if any) the current OS thread belongs to, for push locality:
// notifications raised from a loop thread go straight to its local queue,
// everything else goes through the global injector.
thread_local const EventLoop* tl_loop = nullptr;
thread_local std::size_t tl_slot = 0;

/// Longest sleep with nothing due: belt and braces against a missed poke.
constexpr auto kIdlePoll = std::chrono::milliseconds(250);

std::int64_t to_ns(EventLoop::Clock::time_point tp) {
  if (tp == EventLoop::Clock::time_point::max()) {
    return std::numeric_limits<std::int64_t>::max();
  }
  return std::chrono::duration_cast<std::chrono::nanoseconds>(tp.time_since_epoch()).count();
}

EventLoop::Clock::time_point from_ns(std::int64_t ns) {
  if (ns == std::numeric_limits<std::int64_t>::max()) return EventLoop::Clock::time_point::max();
  return EventLoop::Clock::time_point(
      std::chrono::duration_cast<EventLoop::Clock::duration>(std::chrono::nanoseconds(ns)));
}

}  // namespace

// ---------------------------------------------------------------------------
// TimerWheel

TimerWheel::TimerWheel(Clock::duration slot_width, std::size_t slot_count)
    : slot_width_(slot_width), slots_(slot_count), last_advance_(Clock::now()) {}

std::size_t TimerWheel::slot_of(Clock::time_point when) const {
  auto ticks = static_cast<std::uint64_t>(when.time_since_epoch() / slot_width_);
  return static_cast<std::size_t>(ticks % slots_.size());
}

void TimerWheel::schedule(std::uint32_t task, Clock::time_point when) {
  // A deadline the cursor has passed (computed from a clock read taken
  // before another thread advanced the wheel) goes into the cursor's own
  // slot, which the next advance visits; its own slot would wait a whole
  // revolution.
  slots_[slot_of(std::max(when, last_advance_))].push_back(Entry{task, when});
  ++count_;
}

TimerWheel::Clock::time_point TimerWheel::advance(Clock::time_point now,
                                                  std::vector<std::uint32_t>& due) {
  if (count_ == 0) {
    last_advance_ = now;
    return Clock::time_point::max();
  }
  // Visit every slot the cursor crossed since the last advance (inclusive),
  // capped at one full revolution: entries further out than one revolution
  // simply stay in their slot until a later visit (their stored deadline is
  // what decides expiry, the slot index only decides when we look).
  if (now > last_advance_) {
    auto elapsed = now - last_advance_;
    std::size_t steps =
        std::min<std::size_t>(slots_.size(),
                              static_cast<std::size_t>(elapsed / slot_width_) + 1);
    std::size_t begin = slot_of(last_advance_);
    for (std::size_t i = 0; i < steps; ++i) {
      std::vector<Entry>& slot = slots_[(begin + i) % slots_.size()];
      for (std::size_t j = 0; j < slot.size();) {
        if (slot[j].when <= now) {
          due.push_back(slot[j].task);
          slot[j] = slot.back();
          slot.pop_back();
          --count_;
        } else {
          ++j;
        }
      }
    }
    last_advance_ = now;
  }
  if (count_ == 0) return Clock::time_point::max();
  Clock::time_point next = Clock::time_point::max();
  for (const std::vector<Entry>& slot : slots_) {
    for (const Entry& e : slot) next = std::min(next, e.when);
  }
  return next;
}

// ---------------------------------------------------------------------------
// EventLoop

EventLoop::EventLoop(std::size_t threads, std::size_t task_count, RunFn run,
                     SuspendCheck still_suspended)
    : threads_(threads == 0 ? 1 : threads),
      task_count_(task_count),
      run_(std::move(run)),
      still_suspended_(std::move(still_suspended)),
      state_(new std::atomic<std::uint8_t>[task_count]),
      injector_next_(new std::atomic<std::uint32_t>[task_count]),
      wheel_(std::chrono::milliseconds(1), 256) {
  for (std::size_t i = 0; i < task_count; ++i) {
    state_[i].store(kIdle, std::memory_order_relaxed);
    injector_next_[i].store(kNil, std::memory_order_relaxed);
  }
  local_.reserve(threads_);
  for (std::size_t i = 0; i < threads_; ++i) local_.push_back(std::make_unique<LocalQueue>());
}

EventLoop::~EventLoop() { stop(); }

void EventLoop::start() {
  if (running_.exchange(true)) return;
  workers_.reserve(threads_);
  for (std::size_t i = 0; i < threads_; ++i) {
    workers_.emplace_back([this, i] { thread_main(i); });
  }
}

void EventLoop::stop() {
  if (!running_.exchange(false)) return;
  {
    std::lock_guard<std::mutex> lk(sleep_mutex_);
  }
  sleep_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

void EventLoop::notify(std::uint32_t task) {
  std::atomic<std::uint8_t>& st = state_[task];
  std::uint8_t cur = st.load(std::memory_order_acquire);
  while (true) {
    switch (cur) {
      case kIdle:
        if (st.compare_exchange_weak(cur, kQueued, std::memory_order_acq_rel)) {
          push_ready(task);
          return;
        }
        break;
      case kRunning:
        if (st.compare_exchange_weak(cur, kRunningNotified, std::memory_order_acq_rel)) {
          return;
        }
        break;
      default:
        // kQueued / kRunningNotified: already pending. kSuspended: plain
        // notifies are dropped — the task re-examines every wakeup
        // condition when resume() re-queues it, so nothing is lost.
        return;
    }
  }
}

void EventLoop::resume(std::uint32_t task) {
  std::atomic<std::uint8_t>& st = state_[task];
  // seq_cst: one side of the suspend handshake (see the constructor).
  std::uint8_t cur = st.load(std::memory_order_seq_cst);
  while (true) {
    switch (cur) {
      case kSuspended:
      case kIdle:
        if (st.compare_exchange_weak(cur, kQueued, std::memory_order_seq_cst)) {
          push_ready(task);
          return;
        }
        break;
      case kRunning:
        // The step that is about to suspend has not parked yet: convert the
        // resume into a re-run flag so it re-queues instead of parking.
        if (st.compare_exchange_weak(cur, kRunningNotified, std::memory_order_seq_cst)) {
          return;
        }
        break;
      default:
        return;  // kQueued / kRunningNotified: already runnable
    }
  }
}

void EventLoop::schedule_at(std::uint32_t task, Clock::time_point when) {
  std::lock_guard<std::mutex> lk(sleep_mutex_);
  wheel_.schedule(task, when);
  std::int64_t wn = to_ns(when);
  if (wn < next_timer_ns_.load(std::memory_order_relaxed)) {
    next_timer_ns_.store(wn, std::memory_order_release);
    // A sleeper may be waiting until a later deadline; poke one so it
    // recomputes its wait bound against the new earliest timer.
    if (sleepers_.load(std::memory_order_relaxed) > 0) sleep_cv_.notify_one();
  }
}

EventLoopStats EventLoop::stats() const {
  EventLoopStats s;
  s.wakeups_productive = wakeups_productive_.load(std::memory_order_relaxed);
  s.wakeups_spurious = wakeups_spurious_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  s.watch_pokes = watch_pokes_.load(std::memory_order_relaxed);
  s.ready_peak = ready_peak_.load(std::memory_order_relaxed);
  return s;
}

void EventLoop::push_ready(std::uint32_t task) {
  // seq_cst: pairs with leave_watch's release of the watch (see there).
  std::size_t depth = ready_count_.fetch_add(1, std::memory_order_seq_cst) + 1;
  std::size_t peak = ready_peak_.load(std::memory_order_relaxed);
  while (depth > peak &&
         !ready_peak_.compare_exchange_weak(peak, depth, std::memory_order_relaxed)) {
  }

  if (tl_loop == this) {
    // Locality first: the notifier runs the task after its current step.
    // A woken peer would only take the task to another core; one stuck
    // behind a long step is stolen once it has waited kStealAge, which the
    // watcher sees to.
    const Clock::time_point now = Clock::now();
    {
      LocalQueue& q = *local_[tl_slot];
      std::lock_guard<std::mutex> lk(q.mutex);
      q.tasks.push_back({task, now});
    }
    request_watch();
    return;
  }

  // Lock-free MPSC-style injector push (Treiber stack over task ids; the
  // state machine guarantees a task id is pushed at most once at a time).
  // seq_cst pairs with the sleeper's increment of sleepers_ and re-read of
  // injector_head_: either this push sees the sleeper (and notifies), or the
  // sleeper's re-read sees this push — no lost wakeups (Dekker-style).
  std::uint32_t head = injector_head_.load(std::memory_order_relaxed);
  do {
    injector_next_[task].store(head, std::memory_order_relaxed);
  } while (!injector_head_.compare_exchange_weak(head, task, std::memory_order_seq_cst));

  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    {
      std::lock_guard<std::mutex> lk(sleep_mutex_);
    }
    sleep_cv_.notify_one();
  }
}

bool EventLoop::drain_injector(std::size_t self) {
  std::uint32_t head = injector_head_.exchange(kNil, std::memory_order_acq_rel);
  if (head == kNil) return false;
  // The stack pops LIFO; reverse the chain so tasks run in push order.
  std::vector<std::uint32_t> chain;
  while (head != kNil) {
    chain.push_back(head);
    head = injector_next_[head].load(std::memory_order_relaxed);
  }
  const Clock::time_point now = Clock::now();
  {
    LocalQueue& q = *local_[self];
    std::lock_guard<std::mutex> lk(q.mutex);
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) q.tasks.push_back({*it, now});
  }
  // All but the first wait behind this thread's next step, like local pushes.
  if (chain.size() > 1) request_watch();
  return true;
}

bool EventLoop::steal(std::size_t self, Clock::time_point now, std::uint32_t& task) {
  for (std::size_t i = 1; i < threads_; ++i) {
    LocalQueue& victim = *local_[(self + i) % threads_];
    std::lock_guard<std::mutex> lk(victim.mutex);
    // The front task is the queue's oldest: when it is too young to take,
    // so is every task behind it.
    if (!victim.tasks.empty() && now - victim.tasks.front().since >= kStealAge) {
      task = victim.tasks.front().task;
      victim.tasks.pop_front();
      steals_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

bool EventLoop::oldest_peer_front(std::size_t self, Clock::time_point& since) {
  bool found = false;
  for (std::size_t i = 1; i < threads_; ++i) {
    LocalQueue& peer = *local_[(self + i) % threads_];
    std::lock_guard<std::mutex> lk(peer.mutex);
    if (!peer.tasks.empty() && (!found || peer.tasks.front().since < since)) {
      since = peer.tasks.front().since;
      found = true;
    }
  }
  return found;
}

// The watch. While any queue holds a task, either some thread holds the
// watch (watcher_ is its slot, or kWatchPoked while a poked sleeper is on
// its way to take it) or no thread sleeps, so every task is looked at once
// it has waited about kStealAge. A parked watcher sleeps until the oldest
// peer front's stamp plus the age, which steal() tests; other parked
// threads sleep until a timer or an injector push.
//
// The queue mutex orders a local push against a parking thread's scan:
// either the scan sees the task, or the parking thread counted itself in
// sleepers_ before it and the pusher, reading sleepers_ after its push,
// finds no watcher and pokes. A watcher that lets go does so before its
// last look at the queues: it clears watcher_ (seq_cst) and then reads
// ready_count_ (seq_cst), while a pusher increments ready_count_ (seq_cst)
// and then reads watcher_ (seq_cst). In the single order of those four
// operations one side sees the other and pokes a sleeper.

void EventLoop::poke_sleeper() {
  watch_pokes_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(sleep_mutex_);
  }
  sleep_cv_.notify_one();
}

void EventLoop::request_watch() {
  if (watcher_.load(std::memory_order_seq_cst) != kNoWatcher ||
      sleepers_.load(std::memory_order_seq_cst) == 0) {
    return;
  }
  std::size_t expected = kNoWatcher;
  if (watcher_.compare_exchange_strong(expected, kWatchPoked, std::memory_order_seq_cst)) {
    poke_sleeper();
  }
}

bool EventLoop::take_watch(std::size_t self, Clock::time_point now, Clock::time_point& until) {
  std::size_t w = watcher_.load(std::memory_order_seq_cst);
  if (w != self && w != kNoWatcher && w != kWatchPoked) return false;  // a peer watches
  // ready_count_ after this thread's count in sleepers_ (both seq_cst): a
  // pusher that increments it too late for this read finds the sleeper.
  Clock::time_point oldest;
  bool queued = ready_count_.load(std::memory_order_seq_cst) > 0 && oldest_peer_front(self, oldest);
  if (!queued && w == self) {
    // Let go, then look once more: a push the first look missed either
    // shows now or finds the watch free and pokes.
    watcher_.store(kNoWatcher, std::memory_order_seq_cst);
    w = kNoWatcher;
    queued = ready_count_.load(std::memory_order_seq_cst) > 0 && oldest_peer_front(self, oldest);
  }
  if (queued) {
    until = oldest + kStealAge;
  } else if (w == kWatchPoked) {
    // Poked for a push its notifier has run since: watch one age anyway,
    // so the notifier's next pushes do not poke once each.
    until = now + kStealAge;
  } else {
    return false;
  }
  if (w != self) watcher_.store(self, std::memory_order_seq_cst);
  return true;
}

void EventLoop::leave_watch(std::size_t self, bool just_woke) {
  std::size_t w = watcher_.load(std::memory_order_relaxed);
  if (w != self && !(just_woke && w == kWatchPoked)) return;
  if (!watcher_.compare_exchange_strong(w, kNoWatcher, std::memory_order_seq_cst)) return;
  if (ready_count_.load(std::memory_order_seq_cst) > 0) request_watch();
}

bool EventLoop::pop_ready(std::size_t self, Clock::time_point now, std::uint32_t& task) {
  LocalQueue& mine = *local_[self];
  {
    std::lock_guard<std::mutex> lk(mine.mutex);
    if (!mine.tasks.empty()) {
      task = mine.tasks.front().task;
      mine.tasks.pop_front();
      ready_count_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  if (drain_injector(self)) {
    std::lock_guard<std::mutex> lk(mine.mutex);
    if (!mine.tasks.empty()) {
      task = mine.tasks.front().task;
      mine.tasks.pop_front();
      ready_count_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  if (steal(self, now, task)) {
    ready_count_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void EventLoop::run_task(std::uint32_t task, std::size_t self) {
  std::atomic<std::uint8_t>& st = state_[task];
  st.store(kRunning, std::memory_order_release);
  StepResult r = run_(task, self);
  std::uint8_t cur = st.load(std::memory_order_acquire);
  while (true) {
    bool requeue = false;
    std::uint8_t next;
    if (r == StepResult::kYield) {
      next = kQueued;
      requeue = true;
    } else if (cur == kRunningNotified) {
      // A notify/resume landed mid-step: run again rather than going idle
      // or parking (the racing wakeup must not be lost).
      next = kQueued;
      requeue = true;
    } else {
      next = (r == StepResult::kSuspend) ? kSuspended : kIdle;
    }
    if (next == kSuspended) {
      if (st.compare_exchange_weak(cur, next, std::memory_order_seq_cst)) {
        // A release that raced the step may have read the task as still
        // queued or running before this transition: re-check (see the
        // constructor) so its wakeup cannot be lost.
        if (!still_suspended_(task)) resume(task);
        return;
      }
    } else if (st.compare_exchange_weak(cur, next, std::memory_order_acq_rel)) {
      if (requeue) push_ready(task);
      return;
    }
  }
}

void EventLoop::fire_timers(Clock::time_point now) {
  std::vector<std::uint32_t> due;
  {
    std::lock_guard<std::mutex> lk(sleep_mutex_);
    due_scratch_.clear();
    Clock::time_point next = wheel_.advance(now, due_scratch_);
    next_timer_ns_.store(to_ns(next), std::memory_order_release);
    due.swap(due_scratch_);
  }
  // Notify outside the sleep mutex: push_ready's wake branch takes it.
  for (std::uint32_t t : due) notify(t);
}

void EventLoop::thread_main(std::size_t self) {
  tl_loop = this;
  tl_slot = self;
  bool just_woke = false;
  while (running_.load(std::memory_order_acquire)) {
    // Fire due timers first so deadlines hold even when the loop never
    // goes idle (the check is one clock read + one atomic load).
    Clock::time_point now = Clock::now();
    if (to_ns(now) >= next_timer_ns_.load(std::memory_order_acquire)) {
      fire_timers(now);
    }

    std::uint32_t task;
    if (pop_ready(self, now, task)) {
      leave_watch(self, just_woke);
      if (just_woke) {
        wakeups_productive_.fetch_add(1, std::memory_order_relaxed);
        just_woke = false;
      }
      run_task(task, self);
      continue;
    }
    if (just_woke) {
      wakeups_spurious_.fetch_add(1, std::memory_order_relaxed);
      just_woke = false;
    }

    std::unique_lock<std::mutex> lk(sleep_mutex_);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    if (injector_head_.load(std::memory_order_seq_cst) != kNil ||
        !running_.load(std::memory_order_acquire)) {
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    // Never sleep past the earliest armed timer. The deadline is read
    // under the sleep mutex, which schedule_at holds while it arms one: an
    // earlier timer armed after this read finds this thread counted in
    // sleepers_ and pokes it.
    Clock::time_point bound =
        std::min(now + kIdlePoll, from_ns(next_timer_ns_.load(std::memory_order_relaxed)));
    Clock::time_point watch_until;
    if (take_watch(self, now, watch_until)) bound = std::min(bound, watch_until);
    sleep_cv_.wait_until(lk, bound);
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
    just_woke = true;
  }
}

}  // namespace repro::rt

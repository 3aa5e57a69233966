#include "rt/event_loop.hpp"

#include <algorithm>

#ifdef __linux__
#include <sys/prctl.h>
#endif

namespace repro::rt {
namespace {

// Which loop (if any) the current OS thread belongs to, for push locality:
// notifications raised from a loop thread go straight to its local queue,
// everything else goes through the global injector.
thread_local const EventLoop* tl_loop = nullptr;
thread_local std::size_t tl_slot = 0;

/// Longest sleep with nothing due: belt and braces against a missed poke.
constexpr auto kIdlePoll = std::chrono::milliseconds(250);

/// Tell the core this is a spin-wait: it eases off the pipeline (and, on
/// x86, yields to a hyperthread sibling) between two clock reads.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

std::int64_t to_ns(EventLoop::Clock::time_point tp) {
  if (tp == EventLoop::Clock::time_point::max()) {
    return std::numeric_limits<std::int64_t>::max();
  }
  return std::chrono::duration_cast<std::chrono::nanoseconds>(tp.time_since_epoch()).count();
}

struct LaterDeadline {
  template <typename Entry>
  bool operator()(const Entry& a, const Entry& b) const {
    return a.when > b.when;
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// TimerHeap

void TimerHeap::schedule(std::uint32_t task, Clock::time_point when) {
  heap_.push_back(Entry{when, task});
  std::push_heap(heap_.begin(), heap_.end(), LaterDeadline{});
}

TimerHeap::Clock::time_point TimerHeap::advance(Clock::time_point now,
                                                std::vector<std::uint32_t>& due) {
  while (!heap_.empty() && heap_.front().when <= now) {
    due.push_back(heap_.front().task);
    std::pop_heap(heap_.begin(), heap_.end(), LaterDeadline{});
    heap_.pop_back();
  }
  return next();
}

// ---------------------------------------------------------------------------
// EventLoop

void EventLoop::TaskRing::push_back(const Queued& q) {
  if (size_ == ring_.size()) {
    std::vector<Queued> bigger(std::max<std::size_t>(16, 2 * ring_.size()));
    for (std::size_t i = 0; i < size_; ++i) bigger[i] = ring_[(head_ + i) & (ring_.size() - 1)];
    ring_.swap(bigger);
    head_ = 0;
  }
  ring_[(head_ + size_) & (ring_.size() - 1)] = q;
  ++size_;
}

EventLoop::EventLoop(std::size_t threads, std::size_t task_count, RunFn run,
                     SuspendCheck still_suspended)
    : threads_(threads == 0 ? 1 : threads),
      task_count_(task_count),
      run_(std::move(run)),
      still_suspended_(std::move(still_suspended)),
      state_(new std::atomic<std::uint8_t>[task_count]),
      injector_next_(new std::atomic<std::uint32_t>[task_count]) {
  for (std::size_t i = 0; i < task_count; ++i) {
    state_[i].store(kIdle, std::memory_order_relaxed);
    injector_next_[i].store(kNil, std::memory_order_relaxed);
  }
  slots_.reserve(threads_);
  for (std::size_t i = 0; i < threads_; ++i) slots_.push_back(std::make_unique<Slot>());
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
    // A parking thread reads running_ under this mutex before it waits.
    std::lock_guard<std::mutex> lk(sleep_mutex_);
  }
  for (const std::unique_ptr<Slot>& s : slots_) s->wake.notify_one();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

bool EventLoop::mark_queued(std::uint32_t task) {
  std::atomic<std::uint8_t>& st = state_[task];
  std::uint8_t cur = st.load(std::memory_order_acquire);
  while (true) {
    switch (cur) {
      case kIdle:
        if (st.compare_exchange_weak(cur, kQueued, std::memory_order_acq_rel)) return true;
        break;
      case kRunning:
        if (st.compare_exchange_weak(cur, kRunningNotified, std::memory_order_acq_rel)) {
          return false;
        }
        break;
      default:
        // kQueued / kRunningNotified: already pending. kSuspended: plain
        // notifies are dropped — the task re-examines every wakeup
        // condition when resume() re-queues it, so nothing is lost.
        return false;
    }
  }
}

void EventLoop::notify(std::uint32_t task) {
  if (mark_queued(task)) push_ready(task);
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
  std::condition_variable* wake = nullptr;
  {
    std::lock_guard<std::mutex> lk(sleep_mutex_);
    // The arming thread is awake: it fires the timer at a loop top or
    // bounds its next park by it, so an owned timer wakes no one.
    const bool owned = tl_loop == this;
    (owned ? slots_[tl_slot]->timers : unowned_timers_).schedule(task, when);
    const std::int64_t wn = to_ns(when);
    if (wn < next_timer_ns_.load(std::memory_order_relaxed)) {
      next_timer_ns_.store(wn, std::memory_order_release);
    }
    // Every parked thread bounds its sleep by the earliest off-loop timer;
    // wake one whose sleep would outlast this one, to re-bound it.
    if (!owned) wake = unpark_one(when);
  }
  if (wake != nullptr) wake->notify_one();
}

EventLoopStats EventLoop::stats() const {
  EventLoopStats s;
  s.wakeups_productive = wakeups_productive_.load(std::memory_order_relaxed);
  s.wakeups_spurious = wakeups_spurious_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  s.watch_pokes = watch_pokes_.load(std::memory_order_relaxed);
  s.deadline_spins = deadline_spins_.load(std::memory_order_relaxed);
  s.ready_peak = ready_peak_.load(std::memory_order_relaxed);
  return s;
}

void EventLoop::count_ready() {
  // seq_cst: pairs with leave_watch's release of the watch (see there).
  std::size_t depth = ready_count_.fetch_add(1, std::memory_order_seq_cst) + 1;
  std::size_t peak = ready_peak_.load(std::memory_order_relaxed);
  while (depth > peak &&
         !ready_peak_.compare_exchange_weak(peak, depth, std::memory_order_relaxed)) {
  }
}

void EventLoop::push_local(std::size_t self, std::uint32_t task, Clock::time_point now) {
  Slot& q = *slots_[self];
  std::lock_guard<std::mutex> lk(q.mutex);
  q.tasks.push_back({task, now});
}

void EventLoop::push_ready(std::uint32_t task) {
  count_ready();
  if (tl_loop == this) {
    // Locality first: the notifier runs the task after its current step.
    // A woken peer would only take the task to another core; one stuck
    // behind a long step is stolen once it has waited kStealAge, which the
    // watcher sees to.
    push_local(tl_slot, task, Clock::now());
    request_watch();
    return;
  }

  // Lock-free MPSC-style injector push (Treiber stack over task ids; the
  // state machine guarantees a task id is pushed at most once at a time).
  // seq_cst pairs with the sleeper's increment of sleepers_ and re-read of
  // injector_head_: either this push sees the sleeper (and wakes one), or
  // the sleeper's re-read sees this push — no lost wakeups (Dekker-style).
  std::uint32_t head = injector_head_.load(std::memory_order_relaxed);
  do {
    injector_next_[task].store(head, std::memory_order_relaxed);
  } while (!injector_head_.compare_exchange_weak(head, task, std::memory_order_seq_cst));

  if (sleepers_.load(std::memory_order_seq_cst) > 0) wake_one();
}

bool EventLoop::drain_injector(std::size_t self) {
  std::uint32_t head = injector_head_.exchange(kNil, std::memory_order_acq_rel);
  if (head == kNil) return false;
  // The stack pops LIFO; reverse the chain in place so tasks run in push
  // order. Every task on it stays kQueued until it is queued below, so no
  // pusher writes its link meanwhile, and the drain allocates nothing.
  std::uint32_t first = kNil;
  while (head != kNil) {
    const std::uint32_t next = injector_next_[head].load(std::memory_order_relaxed);
    injector_next_[head].store(first, std::memory_order_relaxed);
    first = head;
    head = next;
  }
  // All but the first wait behind this thread's next step, like local pushes.
  const bool several = injector_next_[first].load(std::memory_order_relaxed) != kNil;
  const Clock::time_point now = Clock::now();
  {
    Slot& q = *slots_[self];
    std::lock_guard<std::mutex> lk(q.mutex);
    for (std::uint32_t t = first; t != kNil;) {
      const std::uint32_t next = injector_next_[t].load(std::memory_order_relaxed);
      q.tasks.push_back({t, now});
      t = next;
    }
  }
  if (several) request_watch();
  return true;
}

bool EventLoop::steal(std::size_t self, Clock::time_point now, std::uint32_t& task) {
  for (std::size_t i = 1; i < threads_; ++i) {
    Slot& victim = *slots_[(self + i) % threads_];
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
    Slot& peer = *slots_[(self + i) % threads_];
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
//
// The timer watch. A thread that is not parked fires its own timers at
// its loop top, unless a long step holds it. So one parked thread at most,
// the timer watcher, ends its sleep kStealAge after the earliest deadline
// among the threads that are neither parked nor polling, and fires it if it
// is still pending. A polling thread is left out like a parked one: its
// poll ends at its earliest deadline, and covering that deadline would
// only wake the watcher kStealAge later to find it fired. The role is
// taken at park time and given up at the wake, all under sleep_mutex_,
// which every timer heap and parked and polling flag is read under. A
// timer armed after the timer watcher parked is covered from the next
// park on. Wakers pick the timer watcher first, so one parked thread tends
// to hold both watches.

bool EventLoop::wake_one() {
  std::condition_variable* wake;
  {
    std::lock_guard<std::mutex> lk(sleep_mutex_);
    wake = unpark_one(Clock::time_point::min());
  }
  if (wake == nullptr) return false;
  wake->notify_one();
  return true;
}

std::condition_variable* EventLoop::unpark_one(Clock::time_point later_than) {
  auto qualifies = [&](std::size_t s) {
    return slots_[s]->parked && slots_[s]->park_until > later_than;
  };
  // The timer watcher wakes soon anyway: waking it spares a second thread.
  std::size_t target =
      timer_watcher_ != kNoWatcher && qualifies(timer_watcher_) ? timer_watcher_ : kNoWatcher;
  for (std::size_t s = 0; target == kNoWatcher && s < threads_; ++s) {
    if (qualifies(s)) target = s;
  }
  if (target == kNoWatcher) return nullptr;
  slots_[target]->parked = false;
  sleepers_.fetch_sub(1, std::memory_order_relaxed);
  if (timer_watcher_ == target) timer_watcher_ = kNoWatcher;
  return &slots_[target]->wake;
}

void EventLoop::request_watch() {
  if (watcher_.load(std::memory_order_seq_cst) != kNoWatcher ||
      sleepers_.load(std::memory_order_seq_cst) == 0) {
    return;
  }
  std::size_t expected = kNoWatcher;
  if (watcher_.compare_exchange_strong(expected, kWatchPoked, std::memory_order_seq_cst) &&
      wake_one()) {
    watch_pokes_.fetch_add(1, std::memory_order_relaxed);
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

bool EventLoop::take_timer_watch(std::size_t self, Clock::time_point& until) {
  if (timer_watcher_ != kNoWatcher) return false;  // a parked peer covers them
  Clock::time_point earliest = Clock::time_point::max();
  for (std::size_t i = 1; i < threads_; ++i) {
    const Slot& peer = *slots_[(self + i) % threads_];
    if (!peer.parked && !peer.polling.load(std::memory_order_relaxed)) {
      earliest = std::min(earliest, peer.timers.next());
    }
  }
  if (earliest == Clock::time_point::max()) return false;
  timer_watcher_ = self;
  until = earliest + kStealAge;
  return true;
}

void EventLoop::leave_watch(std::size_t self, bool just_woke) {
  std::size_t w = watcher_.load(std::memory_order_relaxed);
  if (w != self && !(just_woke && w == kWatchPoked)) return;
  if (!watcher_.compare_exchange_strong(w, kNoWatcher, std::memory_order_seq_cst)) return;
  if (ready_count_.load(std::memory_order_seq_cst) > 0) request_watch();
}

bool EventLoop::pop_ready(std::size_t self, Clock::time_point now, std::uint32_t& task) {
  Slot& mine = *slots_[self];
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

void EventLoop::fire_timers(std::size_t self, Clock::time_point now) {
  Slot& me = *slots_[self];
  {
    std::lock_guard<std::mutex> lk(sleep_mutex_);
    Clock::time_point next = unowned_timers_.advance(now, me.due);
    for (const std::unique_ptr<Slot>& s : slots_) {
      next = std::min(next, s->timers.advance(now, me.due));
    }
    next_timer_ns_.store(to_ns(next), std::memory_order_release);
  }
  // Queue outside the sleep mutex: request_watch may wake a sleeper. This
  // thread runs the first fired task next; the rest wait behind it, like
  // local pushes.
  std::size_t queued = 0;
  for (std::uint32_t t : me.due) {
    if (!mark_queued(t)) continue;
    count_ready();
    push_local(self, t, now);
    ++queued;
  }
  me.due.clear();
  if (queued > 1) request_watch();
}

bool EventLoop::park(std::size_t self, Clock::time_point now) {
  Slot& me = *slots_[self];
  Clock::time_point own;  // this thread's earliest timer
  bool poll;
  bool sleep;
  {
    std::unique_lock<std::mutex> lk(sleep_mutex_);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    if (injector_head_.load(std::memory_order_seq_cst) != kNil ||
        !running_.load(std::memory_order_acquire)) {
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
    // Never sleep past this thread's own earliest timer or the earliest
    // off-loop one; other threads' timers are their own business. The heaps
    // are read under the sleep mutex, which schedule_at holds while it arms:
    // an off-loop timer armed after this read finds this thread parked and
    // wakes it when its bound is later.
    own = me.timers.next();
    Clock::time_point bound = std::min({now + kIdlePoll, own, unowned_timers_.next()});
    Clock::time_point until;
    if (take_timer_watch(self, until)) bound = std::min(bound, until);
    if (take_watch(self, now, until)) bound = std::min(bound, until);
    // Its own timer bounds the sleep: wake kSpinAhead early and poll the
    // rest, or only poll when the deadline is nearer than that. Every other
    // bound is slept exactly, so only a timer's owner polls for it.
    poll = bound == own;
    const Clock::time_point wake_at = poll ? own - kSpinAhead : bound;
    sleep = !poll || wake_at > now;
    if (sleep) {
      me.parked = true;
      me.park_until = bound;
      // A waker clears `parked` before it signals, after unlocking: a signal
      // meant for an earlier park of this thread finds it parked again and
      // leaves it asleep.
      me.wake.wait_until(lk, wake_at, [&] {
        return !me.parked || !running_.load(std::memory_order_acquire);
      });
      if (!me.parked) return true;  // a waker picked this thread: its work comes first
      me.parked = false;
    }
    // The wait ended at its bound, the loop stops, or it never began: no
    // waker picked this thread.
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
    if (timer_watcher_ == self) timer_watcher_ = kNoWatcher;
    // Set under the sleep mutex, so a peer that takes the timer watch sees
    // this thread either parked or polling.
    if (poll) me.polling.store(true, std::memory_order_relaxed);
  }
  if (poll) {
    poll_until(own);
    me.polling.store(false, std::memory_order_relaxed);
  }
  return sleep;
}

void EventLoop::poll_until(Clock::time_point deadline) {
  // Relaxed loads: a push or stop() this misses is seen at the loop top,
  // at the latest kSpinAhead from now.
  while (Clock::now() < deadline && injector_head_.load(std::memory_order_relaxed) == kNil &&
         running_.load(std::memory_order_relaxed)) {
    cpu_relax();
  }
  deadline_spins_.fetch_add(1, std::memory_order_relaxed);
}

void EventLoop::thread_main(std::size_t self) {
  tl_loop = this;
  tl_slot = self;
#ifdef __linux__
  // Wake at the deadline, not up to the default 50 us after it. Slack is a
  // per-thread attribute: only loop threads change. 0 would mean "reset to
  // the default", so 1 ns is the least slack there is.
  (void)prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
  bool just_woke = false;
  while (running_.load(std::memory_order_acquire)) {
    // Fire due timers first so deadlines hold even when the loop never
    // goes idle (the check is one clock read + one atomic load).
    Clock::time_point now = Clock::now();
    if (to_ns(now) >= next_timer_ns_.load(std::memory_order_acquire)) {
      fire_timers(self, now);
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
    // A park that ends in a poll counts as one wake-up, a poll without a
    // park as none.
    just_woke = park(self, now);
  }
}

}  // namespace repro::rt

// Unit tests for the async scheduler primitives in isolation: the
// TimerHeap's expiry order, the EventLoop's task state machine
// (notify dedupe, single-runner guarantee, suspend/resume without lost
// wakeups) — the properties the AsyncEngine's correctness rests on — and
// its locality-first queueing (a notified task stays on its notifier's
// thread, peers steal only work that has waited, one parked thread
// watches the queues for such work) and its deadline-exact timers (a
// timer wakes the thread that armed it, at the deadline, and a parked
// peer fires it when its owner is stuck in a long step), and the deadline
// spin (the owner polls the last kSpinAhead to its timer, and the poll
// yields to an external notify and to stop()).
#include "rt/event_loop.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sys/prctl.h>
#endif

namespace repro::rt {
namespace {

using Clock = std::chrono::steady_clock;
using std::chrono::milliseconds;

// Suspend check for loops whose tasks never suspend, or stay suspended
// until an explicit resume(): no wake condition, so always still blocked.
bool blocked_until_resume(std::uint32_t) { return true; }

constexpr std::size_t kNoSlot = ~std::size_t{0};

TEST(TimerHeap, FiresDueEntriesAndReportsNextDeadline) {
  TimerHeap heap;
  Clock::time_point t0 = Clock::now();
  heap.schedule(2, t0 + milliseconds(5));
  heap.schedule(1, t0 + milliseconds(2));
  EXPECT_FALSE(heap.empty());
  EXPECT_EQ(heap.next(), t0 + milliseconds(2));

  std::vector<std::uint32_t> due;
  Clock::time_point next = heap.advance(t0, due);
  EXPECT_TRUE(due.empty());
  EXPECT_EQ(next, t0 + milliseconds(2));

  next = heap.advance(t0 + milliseconds(3), due);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0], 1u);
  EXPECT_EQ(next, t0 + milliseconds(5));

  due.clear();
  next = heap.advance(t0 + milliseconds(10), due);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0], 2u);
  EXPECT_TRUE(heap.empty());
  EXPECT_EQ(next, Clock::time_point::max());
}

TEST(TimerHeap, FarDeadlineFiresOnlyWhenDue) {
  // A deadline far beyond the nearer ones must not fire at any advance
  // before it, however many nearer timers fire around it.
  TimerHeap heap;
  Clock::time_point t0 = Clock::now();
  heap.schedule(7, t0 + milliseconds(19));
  std::vector<std::uint32_t> due;
  for (int pass = 1; pass <= 18; ++pass) {
    heap.schedule(100 + static_cast<std::uint32_t>(pass), t0 + milliseconds(pass));
    heap.advance(t0 + milliseconds(pass), due);
    ASSERT_EQ(due.size(), 1u) << "at +" << pass << "ms";
    EXPECT_EQ(due[0], 100u + static_cast<std::uint32_t>(pass))
        << "fired early at +" << pass << "ms";
    due.clear();
  }
  heap.advance(t0 + milliseconds(19), due);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0], 7u);
}

TEST(TimerHeap, ManyTimersSameDeadlineAllFire) {
  TimerHeap heap;
  Clock::time_point t0 = Clock::now();
  for (std::uint32_t i = 0; i < 50; ++i) heap.schedule(i, t0 + milliseconds(3));
  std::vector<std::uint32_t> due;
  heap.advance(t0 + milliseconds(4), due);
  ASSERT_EQ(due.size(), 50u);
  std::sort(due.begin(), due.end());
  for (std::uint32_t i = 0; i < 50; ++i) EXPECT_EQ(due[i], i);
  EXPECT_TRUE(heap.empty());
}

TEST(EventLoop, RunsNotifiedTasksExactlyOncePerNotify) {
  constexpr std::size_t kTasks = 8;
  std::vector<std::atomic<int>> runs(kTasks);
  for (auto& r : runs) r.store(0);
  EventLoop loop(2, kTasks, [&](std::uint32_t task, std::size_t) {
    runs[task].fetch_add(1, std::memory_order_relaxed);
    return EventLoop::StepResult::kIdle;
  }, blocked_until_resume);
  loop.start();
  for (std::uint32_t t = 0; t < kTasks; ++t) loop.notify(t);
  std::this_thread::sleep_for(milliseconds(100));
  loop.stop();
  for (std::uint32_t t = 0; t < kTasks; ++t) {
    EXPECT_EQ(runs[t].load(), 1) << "task " << t;
  }
}

TEST(EventLoop, SingleRunnerGuaranteeUnderNotifyStorm) {
  // Hammer one task with notifies from several external threads while the
  // loop runs it on 2 threads: the step body must never observe itself
  // concurrently re-entered, and every notify-while-running must coalesce
  // into at least one re-run (no lost wakeups).
  std::atomic<int> inside{0};
  std::atomic<bool> overlapped{false};
  std::atomic<std::uint64_t> steps{0};
  EventLoop loop(2, 1, [&](std::uint32_t, std::size_t) {
    if (inside.fetch_add(1) != 0) overlapped.store(true);
    steps.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    inside.fetch_sub(1);
    return EventLoop::StepResult::kIdle;
  }, blocked_until_resume);
  loop.start();
  std::atomic<bool> stop{false};
  std::vector<std::thread> pokers;
  for (int p = 0; p < 3; ++p) {
    pokers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        loop.notify(0);
        std::this_thread::yield();
      }
    });
  }
  std::this_thread::sleep_for(milliseconds(300));
  stop.store(true);
  for (auto& t : pokers) t.join();
  loop.stop();
  EXPECT_FALSE(overlapped.load()) << "two loop threads stepped the same task concurrently";
  EXPECT_GT(steps.load(), 100u);
}

TEST(EventLoop, SuspendIgnoresNotifyUntilResume) {
  // First step suspends. Plain notifies must NOT restart the task; a
  // resume must.
  std::atomic<int> steps{0};
  EventLoop loop(1, 1, [&](std::uint32_t, std::size_t) {
    int n = steps.fetch_add(1, std::memory_order_relaxed);
    return n == 0 ? EventLoop::StepResult::kSuspend : EventLoop::StepResult::kIdle;
  }, blocked_until_resume);
  loop.start();
  loop.notify(0);
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_EQ(steps.load(), 1);

  loop.notify(0);  // dropped: the task is suspended
  loop.notify(0);
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_EQ(steps.load(), 1) << "notify must not wake a suspended task";

  loop.resume(0);
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_EQ(steps.load(), 2) << "resume must wake the suspended task";
  loop.stop();
}

TEST(EventLoop, ResumeDuringStepIsNotLost) {
  // The resume-vs-suspend race: the task decides kSuspend, and a resume()
  // arrives while the step is still running (before the scheduler records
  // the suspension). The wakeup must convert into a re-run, not vanish —
  // the exact race that would wedge a backpressured emitter forever.
  std::atomic<int> steps{0};
  std::atomic<bool> in_step{false};
  std::atomic<bool> resume_sent{false};
  EventLoop loop(1, 1, [&](std::uint32_t, std::size_t) {
    int n = steps.fetch_add(1, std::memory_order_relaxed);
    if (n == 0) {
      in_step.store(true);
      // Hold the step open until the external resume has been issued.
      while (!resume_sent.load()) std::this_thread::yield();
      return EventLoop::StepResult::kSuspend;
    }
    return EventLoop::StepResult::kIdle;
  }, blocked_until_resume);
  loop.start();
  loop.notify(0);
  while (!in_step.load()) std::this_thread::yield();
  loop.resume(0);  // lands while the step is mid-flight
  resume_sent.store(true);
  std::this_thread::sleep_for(milliseconds(100));
  loop.stop();
  EXPECT_EQ(steps.load(), 2) << "resume during a suspending step must re-run the task";
}

TEST(EventLoop, GateReleaseRacingSuspendIsNotLost) {
  // The store-buffering race behind a lost wakeup: the step reads its gate
  // after the loop published kRunning, while the releaser opens the gate
  // and then reads the task state in resume(). Both reads can be stale:
  // resume() sees the task still queued and does nothing, the step still
  // sees the gate shut and suspends — for good. The post-suspend re-check
  // must close that window. Each round sweeps the release across the
  // step's start with a different spin delay.
  std::atomic<int> gate{0};
  std::atomic<std::uint64_t> open_runs{0};
  EventLoop loop(
      1, 1,
      [&](std::uint32_t, std::size_t) {
        if (gate.load(std::memory_order_seq_cst) > 0) return EventLoop::StepResult::kSuspend;
        open_runs.fetch_add(1, std::memory_order_relaxed);
        return EventLoop::StepResult::kIdle;
      },
      [&](std::uint32_t) { return gate.load(std::memory_order_seq_cst) > 0; });
  loop.start();
  constexpr int kRounds = 100000;
  int wedged_round = -1;
  for (int round = 0; round < kRounds && wedged_round < 0; ++round) {
    gate.store(1, std::memory_order_seq_cst);
    const std::uint64_t before = open_runs.load(std::memory_order_relaxed);
    loop.notify(0);
    const Clock::time_point release_at = Clock::now() + std::chrono::nanoseconds(round % 4000);
    while (Clock::now() < release_at) {
    }
    gate.fetch_sub(1, std::memory_order_seq_cst);
    loop.resume(0);
    const auto deadline = Clock::now() + milliseconds(2000);
    while (open_runs.load(std::memory_order_relaxed) == before) {
      if (Clock::now() > deadline) {
        wedged_round = round;
        break;
      }
    }
  }
  loop.stop();
  EXPECT_EQ(wedged_round, -1) << "task stayed suspended with its gate open";
}

TEST(EventLoop, YieldRequeuesForFairness) {
  // One task yields 5 times then idles; a second task must get cycles
  // interleaved on the single thread (it runs before the yielder drains).
  // Both are notified before start(), so the queue order is fixed: the
  // yielder first, its yields behind the second task.
  std::atomic<int> yields_left{5};
  std::atomic<bool> other_ran{false};
  std::atomic<bool> other_ran_before_drain{false};
  EventLoop loop(1, 2, [&](std::uint32_t task, std::size_t) {
    if (task == 1) {
      other_ran.store(true);
      return EventLoop::StepResult::kIdle;
    }
    if (other_ran.load() && yields_left.load() > 0) other_ran_before_drain.store(true);
    return yields_left.fetch_sub(1) > 1 ? EventLoop::StepResult::kYield
                                        : EventLoop::StepResult::kIdle;
  }, blocked_until_resume);
  loop.notify(0);
  loop.notify(1);
  loop.start();
  std::this_thread::sleep_for(milliseconds(100));
  loop.stop();
  EXPECT_TRUE(other_ran.load());
  EXPECT_TRUE(other_ran_before_drain.load())
      << "a yielding task must go to the back of the queue, not starve peers";
}

TEST(EventLoop, TimersNotifyOwnersNearDeadline) {
  // The timer is armed off the loop while the fresh loop thread may be on
  // its way to its first park. The thread reads the earliest off-loop
  // deadline under the sleep mutex that schedule_at holds, so it either
  // sleeps until this deadline or is already parked and gets woken: its
  // wait never runs the full idle poll past the deadline.
  std::atomic<int> runs{0};
  Clock::time_point fired_at{};
  EventLoop loop(1, 1, [&](std::uint32_t, std::size_t) {
    if (runs.fetch_add(1) == 0) fired_at = Clock::now();
    return EventLoop::StepResult::kIdle;
  }, blocked_until_resume);
  loop.start();
  Clock::time_point deadline = Clock::now() + milliseconds(30);
  loop.schedule_at(0, deadline);
  const Clock::time_point give_up = deadline + milliseconds(2000);
  while (runs.load() == 0 && Clock::now() < give_up) std::this_thread::sleep_for(milliseconds(1));
  loop.stop();
  ASSERT_GE(runs.load(), 1);
  EXPECT_GE(fired_at + milliseconds(2), deadline) << "timer fired way too early";
  EXPECT_LE(fired_at, deadline + milliseconds(100)) << "timer fired way too late";
}

/// Spin until `done()` holds; false after two seconds without it.
template <typename Done>
bool wait_for(Done done) {
  const Clock::time_point give_up = Clock::now() + milliseconds(2000);
  while (!done()) {
    if (Clock::now() > give_up) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(EventLoop, NotifyFromAStepRunsOnTheNotifyingThread) {
  // Locality first: task 0 notifies task 1 from inside its step, so task 1
  // joins that thread's own queue and runs there right after the step,
  // long before a peer could steal it. Only a notifier descheduled for the
  // whole steal age can lose its task, and never to a peer before the
  // task has waited kStealAge. Each round has its own pair of tasks
  // (notifier 2r, notified 2r + 1): a notify that lands while an earlier
  // round's task is still leaving its step would re-run it on the thread
  // that ran it, which is not what this test measures.
  constexpr int kRounds = 200;
  std::atomic<std::size_t> notifier_slot{0};
  std::atomic<std::size_t> runner_slot{0};
  std::atomic<int> done{0};
  Clock::time_point notified_at{};  // written before the notify, read by task 1
  std::atomic<std::int64_t> waited_ns{0};
  EventLoop loop(2, 2 * kRounds, [&](std::uint32_t task, std::size_t slot) {
    if (task % 2 == 0) {
      notifier_slot.store(slot);
      notified_at = Clock::now();
      loop.notify(task + 1);
    } else {
      waited_ns.store(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - notified_at).count());
      runner_slot.store(slot);
      done.fetch_add(1);
    }
    return EventLoop::StepResult::kIdle;
  }, blocked_until_resume);
  loop.start();
  int local = 0;
  int stolen_young = 0;
  for (int round = 0; round < kRounds; ++round) {
    loop.notify(2 * static_cast<std::uint32_t>(round));
    ASSERT_TRUE(wait_for([&] { return done.load() == round + 1; })) << "round " << round;
    if (runner_slot.load() == notifier_slot.load()) {
      ++local;
    } else if (std::chrono::nanoseconds(waited_ns.load()) < EventLoop::kStealAge) {
      ++stolen_young;
    }
  }
  loop.stop();
  EXPECT_EQ(stolen_young, 0) << "rounds whose task a peer took before the steal age";
  EXPECT_GE(local, kRounds * 9 / 10) << "rounds whose task ran on its notifier's thread";
}

TEST(EventLoop, AwakePeerLeavesAFreshTaskToItsNotifier) {
  // Task 0 notifies task 1 and returns 5 us later. The other thread is
  // awake in task 2 until the push lands, so it looks at task 1 at once.
  // It must leave it: a peer steals only a task that has waited, and the
  // notifier is back at its queue within microseconds. No round may see
  // task 1 taken elsewhere before it waited kFresh; the notifier runs it
  // in nearly every round (only a notifier descheduled for the whole
  // steal age loses it). Each round has its own three tasks (3r, 3r + 1,
  // 3r + 2), as in NotifyFromAStepRunsOnTheNotifyingThread.
  constexpr int kRounds = 200;
  constexpr auto kFresh = std::chrono::microseconds(10);
  std::atomic<int> round_started{-1};
  std::atomic<bool> watching{false};
  std::atomic<bool> pushed{false};
  std::atomic<int> round_done{-1};
  std::atomic<int> watch_done{-1};
  std::atomic<std::size_t> notifier_slot{kNoSlot};
  std::atomic<std::size_t> runner_slot{kNoSlot};
  std::atomic<std::int64_t> waited_ns{0};
  Clock::time_point pushed_at{};  // written before `pushed`, read after it
  EventLoop loop(2, 3 * kRounds, [&](std::uint32_t task, std::size_t slot) {
    const Clock::time_point give_up = Clock::now() + milliseconds(2000);
    if (task % 3 == 0) {
      notifier_slot.store(slot);
      round_started.fetch_add(1);
      while (!watching.load() && Clock::now() < give_up) {
      }
      pushed_at = Clock::now();
      loop.notify(task + 1);
      pushed.store(true);
      const Clock::time_point until = Clock::now() + std::chrono::microseconds(5);
      while (Clock::now() < until) {
      }
    } else if (task % 3 == 1) {
      while (!pushed.load()) {
      }
      waited_ns.store(std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                           pushed_at)
                          .count());
      runner_slot.store(slot);
      round_done.fetch_add(1);
    } else {
      watching.store(true);
      while (!pushed.load() && Clock::now() < give_up) {
      }
      watch_done.fetch_add(1);
    }
    return EventLoop::StepResult::kIdle;
  }, blocked_until_resume);
  loop.start();
  int stolen_fresh = 0;
  int local = 0;
  for (int round = 0; round < kRounds; ++round) {
    const std::uint32_t base = 3 * static_cast<std::uint32_t>(round);
    watching.store(false);
    pushed.store(false);
    loop.notify(base);
    ASSERT_TRUE(wait_for([&] { return round_started.load() == round; })) << "round " << round;
    loop.notify(base + 2);  // the notifier is busy: this wakes the other thread
    // Task 2 must have seen the push before the next round resets it.
    ASSERT_TRUE(wait_for([&] { return round_done.load() == round && watch_done.load() == round; }))
        << "round " << round;
    if (runner_slot.load() == notifier_slot.load()) {
      ++local;
    } else if (std::chrono::nanoseconds(waited_ns.load()) < kFresh) {
      ++stolen_fresh;
    }
  }
  loop.stop();
  EXPECT_EQ(stolen_fresh, 0) << "rounds whose task an awake peer took before it had waited";
  EXPECT_GE(local, kRounds * 9 / 10) << "rounds whose notifier ran its task itself";
}

TEST(EventLoop, TaskBehindALongStepIsStolenOnceItHasWaited) {
  // Task 0 notifies task 1 and then runs a 5 ms step, so task 1 waits in
  // that thread's queue. The other thread, busy in task 2 when the push
  // lands, finds task 1 too young to steal and parks, but only for the
  // steal age, because a queue holds a task. It takes task 1 once it has
  // waited kStealAge: no earlier, and long before the step ends.
  constexpr auto kLongStep = milliseconds(5);
  std::atomic<std::size_t> long_slot{kNoSlot};
  std::atomic<std::size_t> ran_slot{kNoSlot};
  std::atomic<bool> watching{false};
  std::atomic<bool> pushed{false};
  std::atomic<bool> step_over{false};
  std::atomic<bool> ran_during_step{false};
  Clock::time_point pushed_at{};  // read after stop(), which joins the writers
  Clock::time_point ran_at{};
  EventLoop loop(2, 3, [&](std::uint32_t task, std::size_t slot) {
    const Clock::time_point give_up = Clock::now() + milliseconds(2000);
    if (task == 0) {
      long_slot.store(slot);
      while (!watching.load() && Clock::now() < give_up) {
      }
      pushed_at = Clock::now();
      loop.notify(1);
      pushed.store(true);
      std::this_thread::sleep_for(kLongStep);
      step_over.store(true);
    } else if (task == 1) {
      ran_at = Clock::now();
      ran_during_step.store(!step_over.load());
      ran_slot.store(slot);
    } else {
      // Keep the other thread awake until the push lands, so its first
      // look at task 1 comes before the steal age.
      watching.store(true);
      while (!pushed.load() && Clock::now() < give_up) {
      }
    }
    return EventLoop::StepResult::kIdle;
  }, blocked_until_resume);
  loop.start();
  loop.notify(0);
  ASSERT_TRUE(wait_for([&] { return long_slot.load() != kNoSlot; }));
  loop.notify(2);  // the thread running task 0 is busy: this wakes the other
  ASSERT_TRUE(wait_for([&] { return ran_slot.load() != kNoSlot; }));
  loop.stop();
  EXPECT_NE(ran_slot.load(), long_slot.load()) << "task 1 waited for the long step to end";
  EXPECT_GE(ran_at - pushed_at, EventLoop::kStealAge) << "stolen before the steal age";
  EXPECT_TRUE(ran_during_step.load()) << "task 1 ran only after the 5 ms step";
}

TEST(EventLoop, TaskBehindALongStepIsStolenWhenEveryPeerWasParked) {
  // Both threads park before task 0 runs, so the peer sleeps with no task
  // to watch when task 1 is pushed behind the 5 ms step. The push finds
  // nobody watching and pokes it: it takes the watch and task 1 once it
  // has waited kStealAge, long before the step ends.
  constexpr auto kLongStep = milliseconds(5);
  std::atomic<std::size_t> long_slot{kNoSlot};
  std::atomic<std::size_t> ran_slot{kNoSlot};
  std::atomic<bool> step_over{false};
  std::atomic<bool> ran_during_step{false};
  Clock::time_point pushed_at{};  // read after stop(), which joins the writers
  Clock::time_point ran_at{};
  EventLoop loop(2, 2, [&](std::uint32_t task, std::size_t slot) {
    if (task == 0) {
      long_slot.store(slot);
      pushed_at = Clock::now();
      loop.notify(1);
      std::this_thread::sleep_for(kLongStep);
      step_over.store(true);
    } else {
      ran_at = Clock::now();
      ran_during_step.store(!step_over.load());
      ran_slot.store(slot);
    }
    return EventLoop::StepResult::kIdle;
  }, blocked_until_resume);
  loop.start();
  std::this_thread::sleep_for(milliseconds(50));  // both threads park
  loop.notify(0);
  ASSERT_TRUE(wait_for([&] { return ran_slot.load() != kNoSlot; }));
  loop.stop();
  EXPECT_NE(ran_slot.load(), long_slot.load()) << "task 1 waited for the long step to end";
  EXPECT_GE(ran_at - pushed_at, EventLoop::kStealAge) << "stolen before the steal age";
  EXPECT_TRUE(ran_during_step.load()) << "task 1 ran only after the 5 ms step";
}

TEST(EventLoop, OneParkedPeerWatchesTheOthersSleep) {
  // Three threads. Each round, task 0 pushes task 1 and runs a 20 ms step;
  // the other two threads are awake in tasks 2 and 3 until the push lands,
  // then both park while task 1 is queued. One of them watches and takes
  // task 1 once it has waited; the other sleeps through the step. A watch
  // ends without work only when an awake thread took task 1 first (one
  // descheduled for the steal age before it parked), so spurious wakeups
  // in the steps stay rare. With every parked thread watching, nearly
  // every round would have one.
  constexpr int kRounds = 20;
  // Long enough that a watcher descheduled by a loaded host still steals
  // within the step.
  constexpr auto kLongStep = milliseconds(20);
  std::atomic<int> started{0};   // rounds whose task 0 runs
  std::atomic<int> awake{0};     // task 2 and 3 steps begun
  std::atomic<int> pushed{0};    // rounds whose task 1 is queued
  std::atomic<int> measured{0};  // rounds whose long step is over
  std::atomic<int> ran_during_step{0};
  std::atomic<std::uint64_t> spurious{0};
  std::atomic<std::uint64_t> steals{0};
  EventLoop loop(3, 4, [&](std::uint32_t task, std::size_t) {
    const Clock::time_point give_up = Clock::now() + milliseconds(2000);
    if (task == 0) {
      const int round = started.fetch_add(1);
      while (awake.load() < 2 * (round + 1) && Clock::now() < give_up) {
      }
      const EventLoopStats before = loop.stats();
      loop.notify(1);
      pushed.store(round + 1);
      std::this_thread::sleep_for(kLongStep);
      const EventLoopStats after = loop.stats();
      spurious.fetch_add(after.wakeups_spurious - before.wakeups_spurious);
      steals.fetch_add(after.steals - before.steals);
      measured.store(round + 1);
    } else if (task == 1) {
      if (measured.load() < pushed.load()) ran_during_step.fetch_add(1);
    } else {
      const int round = awake.fetch_add(1) / 2;
      while (pushed.load() <= round && Clock::now() < give_up) {
      }
    }
    return EventLoop::StepResult::kIdle;
  }, blocked_until_resume);
  loop.start();
  for (int round = 0; round < kRounds; ++round) {
    loop.notify(0);
    ASSERT_TRUE(wait_for([&] { return started.load() == round + 1; })) << "round " << round;
    loop.notify(2);  // the thread running task 0 is busy: these wake the others
    loop.notify(3);
    ASSERT_TRUE(wait_for([&] { return measured.load() == round + 1; })) << "round " << round;
  }
  loop.stop();
  // One round may miss: a loaded host can deschedule both parked threads
  // for a whole step (seen once in 400 TSan rounds, never in 3000 normal
  // ones).
  EXPECT_GE(ran_during_step.load(), kRounds - 1) << "rounds whose task 1 waited for the step";
  EXPECT_GE(steals.load(), static_cast<std::uint64_t>(kRounds - 1));
  EXPECT_LE(steals.load(), static_cast<std::uint64_t>(kRounds));
  EXPECT_LE(spurious.load(), static_cast<std::uint64_t>(kRounds / 4))
      << "parked threads other than the watcher woke in the steps";
}

TEST(EventLoop, LocalNotifyBurstPokesOneWatcherNotOnePerPush) {
  // Task 0 notifies a burst of tasks from its step while both peers are
  // parked. The tasks join the notifier's own queue and it runs them; the
  // first push finds nobody watching and pokes one peer to watch, and the
  // rest poke nobody. Unless a burst task waited long enough to be stolen,
  // the burst costs at most three wakeups: the one task 0's external
  // notify made, and the watcher's poke and its one watch. A peer may take
  // only a burst task that has waited kStealAge.
  constexpr std::uint32_t kBurst = 8;
  std::atomic<std::size_t> notifier_slot{kNoSlot};
  std::vector<std::atomic<std::size_t>> slot_of(kBurst + 1);
  std::vector<std::atomic<std::int64_t>> waited_ns(kBurst + 1);
  Clock::time_point pushed_at{};  // written before the burst, read by it
  std::atomic<std::uint32_t> ran{0};
  EventLoop loop(3, kBurst + 1, [&](std::uint32_t task, std::size_t slot) {
    if (task == 0) {
      notifier_slot.store(slot);
      pushed_at = Clock::now();
      for (std::uint32_t t = 1; t <= kBurst; ++t) loop.notify(t);
    } else {
      waited_ns[task].store(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - pushed_at).count());
      slot_of[task].store(slot);
      ran.fetch_add(1);
    }
    return EventLoop::StepResult::kIdle;
  }, blocked_until_resume);
  loop.start();
  std::this_thread::sleep_for(milliseconds(50));  // all three threads park
  const EventLoopStats before = loop.stats();
  loop.notify(0);
  ASSERT_TRUE(wait_for([&] { return ran.load() == kBurst; }));
  // Let the watcher's watch run out, well inside the idle poll.
  std::this_thread::sleep_for(milliseconds(20));
  const EventLoopStats after = loop.stats();
  loop.stop();
  const std::uint64_t steals = after.steals - before.steals;
  const std::uint64_t pokes = after.watch_pokes - before.watch_pokes;
  const std::uint64_t wakeups = (after.wakeups_productive - before.wakeups_productive) +
                                (after.wakeups_spurious - before.wakeups_spurious);
  EXPECT_GE(wakeups, 1u);
  // A watcher that steals hands the watch on while tasks stay queued.
  EXPECT_LE(pokes, 1 + steals) << "local pushes poked more than one watcher";
  if (steals == 0) {
    EXPECT_EQ(pokes, 1u);
    EXPECT_LE(wakeups, 3u) << "local pushes woke more than one watcher";
  }
  for (std::uint32_t t = 1; t <= kBurst; ++t) {
    if (slot_of[t].load() != notifier_slot.load()) {
      EXPECT_GE(std::chrono::nanoseconds(waited_ns[t].load()), EventLoop::kStealAge)
          << "task " << t << " taken before the steal age";
    }
  }
}

TEST(EventLoop, InjectorDrainRunsTasksInPushOrder) {
  // Task 0 holds the only loop thread while this thread notifies tasks 1
  // to kTasks - 1, so they pile up on the injector, a LIFO stack; one drain
  // takes them all once task 0 returns. The drain reverses the chain in
  // place, through the links the pushes wrote: each task runs once, in
  // push order.
  constexpr std::uint32_t kTasks = 64;
  std::atomic<bool> holding{false};
  std::atomic<bool> release{false};
  std::vector<std::uint32_t> order;  // appended by the only loop thread
  std::atomic<std::uint32_t> ran{0};
  EventLoop loop(1, kTasks, [&](std::uint32_t task, std::size_t) {
    if (task == 0) {
      holding.store(true);
      const Clock::time_point give_up = Clock::now() + milliseconds(2000);
      while (!release.load() && Clock::now() < give_up) {
      }
    } else {
      order.push_back(task);
    }
    ran.fetch_add(1);
    return EventLoop::StepResult::kIdle;
  }, blocked_until_resume);
  loop.start();
  loop.notify(0);
  ASSERT_TRUE(wait_for([&] { return holding.load(); }));
  for (std::uint32_t t = 1; t < kTasks; ++t) loop.notify(t);
  release.store(true);
  ASSERT_TRUE(wait_for([&] { return ran.load() == kTasks; }));
  loop.stop();
  ASSERT_EQ(order.size(), kTasks - 1);
  for (std::uint32_t i = 0; i + 1 < kTasks; ++i) EXPECT_EQ(order[i], i + 1) << "position " << i;
}

TEST(EventLoop, ExternalNotifyRacingAParkAlwaysRuns) {
  // The Dekker pair between an injector push and a parking thread's
  // re-read of the injector: a notify that lands while the only loop
  // thread is on its way to sleep must wake it. Each round sweeps the next
  // notify across the park with a different delay. A lost wakeup still
  // runs once the thread's 250 ms idle poll expires, so a round that
  // takes 100 ms or more counts as lost.
  constexpr auto kLost = milliseconds(100);
  std::atomic<std::uint64_t> runs{0};
  EventLoop loop(1, 1, [&](std::uint32_t, std::size_t) {
    runs.fetch_add(1, std::memory_order_relaxed);
    return EventLoop::StepResult::kIdle;
  }, blocked_until_resume);
  loop.start();
  constexpr int kRounds = 100000;
  int lost_round = -1;
  Clock::duration slowest{};
  for (int round = 0; round < kRounds && lost_round < 0; ++round) {
    const std::uint64_t before = runs.load(std::memory_order_relaxed);
    const Clock::time_point notified = Clock::now();
    loop.notify(0);
    const bool ran = wait_for([&] { return runs.load(std::memory_order_relaxed) != before; });
    slowest = std::max(slowest, Clock::now() - notified);
    if (!ran || Clock::now() - notified >= kLost) lost_round = round;
    const Clock::time_point next = Clock::now() + std::chrono::nanoseconds(round % 2000);
    while (Clock::now() < next) {
    }
  }
  loop.stop();
  EXPECT_EQ(lost_round, -1) << "a notify waited "
                            << std::chrono::duration_cast<milliseconds>(slowest).count()
                            << " ms for the loop thread";
  EXPECT_EQ(runs.load(), static_cast<std::uint64_t>(kRounds));
}

TEST(EventLoop, LoopThreadsRunWithOneNanosecondTimerSlack) {
#ifdef __linux__
  // Linux ends a timed sleep up to the thread's timer slack (50 us by
  // default) after its deadline; loop threads ask for 1 ns, the least there
  // is. Slack is per thread, so the thread that made the loop keeps its own.
  const int before = prctl(PR_GET_TIMERSLACK, 0UL, 0UL, 0UL, 0UL);
  std::atomic<int> slack{-1};
  EventLoop loop(1, 1, [&](std::uint32_t, std::size_t) {
    slack.store(prctl(PR_GET_TIMERSLACK, 0UL, 0UL, 0UL, 0UL));
    return EventLoop::StepResult::kIdle;
  }, blocked_until_resume);
  loop.start();
  loop.notify(0);
  ASSERT_TRUE(wait_for([&] { return slack.load() != -1; }));
  loop.stop();
  EXPECT_EQ(slack.load(), 1) << "a loop thread runs with the default timer slack";
  EXPECT_EQ(prctl(PR_GET_TIMERSLACK, 0UL, 0UL, 0UL, 0UL), before);
#else
  GTEST_SKIP() << "timer slack is a Linux attribute";
#endif
}

TEST(EventLoop, TimerWakesOnlyTheThreadThatArmedIt) {
  // A task re-arms its own timer every 200 us from its step, so the timer
  // belongs to the thread that runs it. That thread parks until the
  // deadline and fires it; the two other threads sleep through all 500
  // rounds. Were every parked thread to bound its sleep by every timer,
  // each deadline would wake all three and two would find nothing.
  constexpr int kRounds = 500;
  constexpr auto kPeriod = std::chrono::microseconds(200);
  std::atomic<int> rounds{0};
  std::vector<std::atomic<int>> runs_on(3);
  for (auto& r : runs_on) r.store(0);
  EventLoop loop(3, 1, [&](std::uint32_t task, std::size_t slot) {
    runs_on[slot].fetch_add(1);
    if (rounds.fetch_add(1) + 1 < kRounds) loop.schedule_at(task, Clock::now() + kPeriod);
    return EventLoop::StepResult::kIdle;
  }, blocked_until_resume);
  loop.start();
  std::this_thread::sleep_for(milliseconds(50));  // all three threads park
  const EventLoopStats before = loop.stats();
  loop.notify(0);
  ASSERT_TRUE(wait_for([&] { return rounds.load() == kRounds; }));
  const EventLoopStats after = loop.stats();
  loop.stop();
  int most = 0;
  for (auto& r : runs_on) most = std::max(most, r.load());
  // Slack for the other threads' 250 ms idle polls, which a slow host can
  // reach before the last round.
  EXPECT_GE(most, kRounds - 4) << "rounds that ran away from the timer's thread";
  EXPECT_LE(after.wakeups_spurious - before.wakeups_spurious, 8u)
      << "parked threads woke for a timer they did not arm";
  EXPECT_GE(after.wakeups_productive - before.wakeups_productive,
            static_cast<std::uint64_t>(kRounds / 2));
}

TEST(EventLoop, TimerOfAnOwnerStuckInALongStepFiresOnAParkedPeer) {
  // Task 0 arms a timer for task 1 and then runs a 20 ms step, so the
  // thread that owns the timer cannot fire it. The other thread, busy in
  // task 2 until the timer is armed, parks as the timer watcher: it wakes
  // kStealAge after the deadline and fires it, long before the step ends.
  constexpr auto kLongStep = milliseconds(20);
  constexpr auto kLead = milliseconds(1);
  std::atomic<std::size_t> owner_slot{kNoSlot};
  std::atomic<std::size_t> fired_slot{kNoSlot};
  std::atomic<bool> watching{false};
  std::atomic<bool> armed{false};
  std::atomic<bool> step_over{false};
  std::atomic<bool> fired_during_step{false};
  Clock::time_point deadline{};  // read after stop(), which joins the writers
  Clock::time_point fired_at{};
  EventLoop loop(2, 3, [&](std::uint32_t task, std::size_t slot) {
    const Clock::time_point give_up = Clock::now() + milliseconds(2000);
    if (task == 0) {
      owner_slot.store(slot);
      while (!watching.load() && Clock::now() < give_up) {
      }
      deadline = Clock::now() + kLead;
      loop.schedule_at(1, deadline);
      armed.store(true);
      std::this_thread::sleep_for(kLongStep);
      step_over.store(true);
    } else if (task == 1) {
      fired_at = Clock::now();
      fired_during_step.store(!step_over.load());
      fired_slot.store(slot);
    } else {
      // Keep the other thread awake until the timer is armed, so it parks
      // knowing of it.
      watching.store(true);
      while (!armed.load() && Clock::now() < give_up) {
      }
    }
    return EventLoop::StepResult::kIdle;
  }, blocked_until_resume);
  loop.start();
  loop.notify(0);
  ASSERT_TRUE(wait_for([&] { return owner_slot.load() != kNoSlot; }));
  loop.notify(2);  // the thread running task 0 is busy: this wakes the other
  ASSERT_TRUE(wait_for([&] { return fired_slot.load() != kNoSlot; }));
  loop.stop();
  EXPECT_NE(fired_slot.load(), owner_slot.load()) << "the timer waited for its owner's step";
  EXPECT_TRUE(fired_during_step.load()) << "the timer fired only after the 20 ms step";
  EXPECT_GE(fired_at, deadline) << "fired before its deadline";
  EXPECT_LE(fired_at, deadline + EventLoop::kStealAge + milliseconds(5))
      << "fired long after its deadline plus the steal age";
}

/// Re-arm period of a timer whose deadline is within kSpinAhead whenever
/// its thread parks: the thread polls the clock up to it without sleeping.
constexpr auto kPolledPeriod = EventLoop::kSpinAhead - std::chrono::microseconds(1);

TEST(EventLoop, TimerWithinSpinAheadIsPolledWithoutAWakeup) {
  // A task re-arms its own timer kPolledPeriod ahead at every step. Each
  // round polls at most once (none when the loop top already finds the
  // timer due), and no round sleeps: a poll without a park is no wake-up.
  // Snapshots taken inside steps bound the rounds exactly.
  constexpr int kFirst = 10;
  constexpr int kRounds = 500;
  std::atomic<int> rounds{0};
  EventLoopStats first{};  // written by the loop thread, read after stop()
  EventLoopStats last{};
  EventLoop loop(1, 1, [&](std::uint32_t task, std::size_t) {
    const int round = rounds.fetch_add(1) + 1;
    if (round == kFirst) first = loop.stats();
    if (round == kRounds) {
      last = loop.stats();
    } else {
      loop.schedule_at(task, Clock::now() + kPolledPeriod);
    }
    return EventLoop::StepResult::kIdle;
  }, blocked_until_resume);
  loop.start();
  loop.notify(0);
  ASSERT_TRUE(wait_for([&] { return rounds.load() == kRounds; }));
  loop.stop();
  const std::uint64_t spins = last.deadline_spins - first.deadline_spins;
  EXPECT_EQ(last.wakeups_productive - first.wakeups_productive, 0u);
  EXPECT_EQ(last.wakeups_spurious - first.wakeups_spurious, 0u);
  EXPECT_LE(spins, static_cast<std::uint64_t>(kRounds - kFirst));
  // A slow host (a sanitizer build) can reach some loop tops late.
  EXPECT_GE(spins, static_cast<std::uint64_t>((kRounds - kFirst) / 2))
      << "rounds whose deadline was polled";
}

TEST(EventLoop, PeerLeavesAPolledTimerUnwatched) {
  // Task 0 keeps one of two loop threads polling for its timer almost all
  // the time. Task 1 holds the other thread until task 0's rounds are
  // under way, so that thread parks while its peer polls. Had it taken the
  // timer watch on the polled deadline, it would wake kStealAge after it to
  // find it fired, park, take the watch again and so on: 16 to 70 spurious
  // wake-ups over these rounds in a Release build. It leaves a polling
  // thread's timers out, as it does a parked one's, so it takes the watch
  // only when it parks while the owner is between two polls (0 in the same
  // build).
  constexpr int kHeld = 20;   // task 1 returns after this many rounds
  constexpr int kFirst = 40;  // counting starts here
  constexpr int kRounds = 2000;
  std::atomic<int> rounds{0};
  EventLoopStats first{};  // written by loop threads, read after stop()
  EventLoopStats last{};
  EventLoop loop(2, 2, [&](std::uint32_t task, std::size_t) {
    if (task == 1) {
      const Clock::time_point give_up = Clock::now() + milliseconds(2000);
      while (rounds.load() < kHeld && Clock::now() < give_up) {
      }
      return EventLoop::StepResult::kIdle;
    }
    const int round = rounds.fetch_add(1) + 1;
    if (round == kFirst) first = loop.stats();
    if (round == kRounds) {
      last = loop.stats();
    } else {
      loop.schedule_at(task, Clock::now() + kPolledPeriod);
    }
    return EventLoop::StepResult::kIdle;
  }, blocked_until_resume);
  loop.start();
  loop.notify(0);
  loop.notify(1);
  ASSERT_TRUE(wait_for([&] { return rounds.load() == kRounds; }));
  loop.stop();
  EXPECT_LE(last.wakeups_spurious - first.wakeups_spurious, 10u)
      << "the peer woke after deadlines its owner polled for";
}

TEST(EventLoop, ExternalNotifyDuringASpinRunsPromptly) {
  // Task 0 keeps the only loop thread polling for its timer. A poll is not
  // counted in sleepers_, so a notify from this thread wakes no one: the
  // poll itself must see the injector push and end. Then task 1 runs
  // before task 0's next round; had the poll run on to its deadline, the
  // loop top would fire task 0's timer first and queue it ahead of the
  // injector's task. Only a notify that lands outside a poll would then run
  // first: 0 or 1 of the 200 rounds in a Release build, against about 180
  // with the early end. A slow host (a sanitizer build, about 90) returns
  // from the early end to a loop top the deadline has already passed in
  // more rounds, so the check asks for a fifth of them. A notify lost to
  // the spin would wait for the 250 ms idle poll; each must run within
  // 1 ms, but for a few rounds a shared host may deschedule the loop
  // thread in.
  constexpr int kRounds = 200;
  constexpr auto kPrompt = milliseconds(1);
  constexpr auto kLost = milliseconds(100);
  std::atomic<bool> polling{true};
  std::atomic<int> ticks{0};  // task 0's rounds
  std::atomic<int> runs{0};
  std::atomic<int> seen{0};   // ticks when task 1 last ran
  EventLoop loop(1, 2, [&](std::uint32_t task, std::size_t) {
    if (task == 0) {
      ticks.fetch_add(1);
      if (polling.load()) loop.schedule_at(task, Clock::now() + kPolledPeriod);
    } else {
      seen.store(ticks.load());
      runs.fetch_add(1);
    }
    return EventLoop::StepResult::kIdle;
  }, blocked_until_resume);
  loop.start();
  loop.notify(0);
  ASSERT_TRUE(wait_for([&] { return loop.stats().deadline_spins > 10; }));
  const std::uint64_t spins_before = loop.stats().deadline_spins;
  int slow = 0;
  int ahead = 0;  // rounds where task 1 ran before task 0's next round
  Clock::duration slowest{};
  for (int round = 1; round <= kRounds; ++round) {
    // Land the next notify at a varying point of the poll.
    const Clock::time_point next = Clock::now() + std::chrono::nanoseconds(round * 37 % 9000);
    while (Clock::now() < next) {
    }
    const int before = ticks.load();
    const Clock::time_point notified = Clock::now();
    loop.notify(1);
    ASSERT_TRUE(wait_for([&] { return runs.load() == round; })) << "round " << round;
    const Clock::duration took = Clock::now() - notified;
    slowest = std::max(slowest, took);
    if (took > kPrompt) ++slow;
    if (seen.load() == before) ++ahead;
    // Let task 1's step return, so the next notify is an injector push
    // again rather than a re-run flag on a running task.
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  const std::uint64_t spins = loop.stats().deadline_spins - spins_before;
  polling.store(false);
  loop.stop();
  // A slow host (a sanitizer build) finds some timers already due.
  EXPECT_GE(spins, static_cast<std::uint64_t>(kRounds / 2)) << "the loop thread stopped polling";
  EXPECT_GE(ahead, kRounds / 5) << "rounds where the notify ran before the polled timer";
  EXPECT_LE(slow, kRounds / 20) << "notifies that took over 1 ms";
  EXPECT_LT(slowest, kLost) << "a notify waited "
                            << std::chrono::duration_cast<milliseconds>(slowest).count()
                            << " ms: lost to the spin";
}

TEST(EventLoop, StopDuringASpinJoinsPromptly) {
  // The only loop thread polls for its own timer almost all the time, so
  // stop() lands mid-poll and the thread must leave its loop long before
  // the 250 ms idle poll. The poll ends on stop(); that early end saves at
  // most kSpinAhead, since the loop top checks the flag too, and no bound
  // on a thread join can tell it apart.
  EventLoop loop(1, 1, [&](std::uint32_t task, std::size_t) {
    loop.schedule_at(task, Clock::now() + kPolledPeriod);
    return EventLoop::StepResult::kIdle;
  }, blocked_until_resume);
  loop.start();
  loop.notify(0);
  ASSERT_TRUE(wait_for([&] { return loop.stats().deadline_spins > 100; }));
  const Clock::time_point stopping = Clock::now();
  loop.stop();
  EXPECT_LT(Clock::now() - stopping, milliseconds(100)) << "stop() waited for the spin";
}

TEST(EventLoop, CountsStealsAcrossThreads) {
  // Many long-ish tasks notified from outside land in the injector; with
  // 2 threads draining, the stats must show productive wakeups and a
  // plausible ready-depth peak. (Steals are timing-dependent — on a
  // single-core host the second thread may never overlap — so only the
  // non-negative invariant is asserted there.)
  constexpr std::size_t kTasks = 32;
  std::atomic<int> runs{0};
  EventLoop loop(2, kTasks, [&](std::uint32_t, std::size_t) {
    runs.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    return EventLoop::StepResult::kIdle;
  }, blocked_until_resume);
  loop.start();
  // Let both loop threads park first: wakeup attribution counts passes that
  // follow an actual sleep, so a burst into an already-spinning loop would
  // register nothing.
  std::this_thread::sleep_for(milliseconds(50));
  for (std::uint32_t t = 0; t < kTasks; ++t) loop.notify(t);
  std::this_thread::sleep_for(milliseconds(200));
  loop.stop();
  EXPECT_EQ(runs.load(), static_cast<int>(kTasks));
  EventLoopStats s = loop.stats();
  EXPECT_GT(s.wakeups_productive, 0u);
  EXPECT_GT(s.ready_peak, 1u) << "a burst of 32 notifies must register queue depth";
}

}  // namespace
}  // namespace repro::rt

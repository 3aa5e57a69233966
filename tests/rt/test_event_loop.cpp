// Unit tests for the async scheduler primitives in isolation: the
// TimerWheel's expiry arithmetic, the EventLoop's task state machine
// (notify dedupe, single-runner guarantee, suspend/resume without lost
// wakeups) — the properties the AsyncEngine's correctness rests on — and
// its locality-first queueing (a notified task stays on its notifier's
// thread, peers steal only work that has waited, one parked thread
// watches the queues for such work).
#include "rt/event_loop.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace repro::rt {
namespace {

using Clock = std::chrono::steady_clock;
using std::chrono::milliseconds;

// Suspend check for loops whose tasks never suspend, or stay suspended
// until an explicit resume(): no wake condition, so always still blocked.
bool blocked_until_resume(std::uint32_t) { return true; }

constexpr std::size_t kNoSlot = ~std::size_t{0};

TEST(TimerWheel, FiresDueEntriesAndReportsNextDeadline) {
  TimerWheel wheel(milliseconds(1), 16);
  Clock::time_point t0 = Clock::now();
  wheel.schedule(1, t0 + milliseconds(2));
  wheel.schedule(2, t0 + milliseconds(5));
  EXPECT_FALSE(wheel.empty());

  std::vector<std::uint32_t> due;
  Clock::time_point next = wheel.advance(t0, due);
  EXPECT_TRUE(due.empty());
  EXPECT_LE(next, t0 + milliseconds(5));

  next = wheel.advance(t0 + milliseconds(3), due);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0], 1u);
  EXPECT_EQ(next, t0 + milliseconds(5));

  due.clear();
  wheel.advance(t0 + milliseconds(10), due);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0], 2u);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheel, LongTimersSurviveWheelRevolutions) {
  // A deadline several revolutions out must not fire early just because
  // the cursor passes its slot.
  TimerWheel wheel(milliseconds(1), 4);  // 4ms revolution
  Clock::time_point t0 = Clock::now();
  wheel.schedule(7, t0 + milliseconds(19));

  std::vector<std::uint32_t> due;
  for (int pass = 1; pass <= 18; ++pass) {
    wheel.advance(t0 + milliseconds(pass), due);
    EXPECT_TRUE(due.empty()) << "fired early at +" << pass << "ms";
  }
  wheel.advance(t0 + milliseconds(19), due);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0], 7u);
}

TEST(TimerWheel, DeadlineBehindTheCursorFiresAtTheNextAdvance) {
  // A step reads the clock, is descheduled while another thread advances
  // the wheel past a slot boundary, then arms a deadline computed from its
  // stale reading. The deadline lies in a slot the cursor has passed; it
  // must still fire at the next advance, not a whole revolution later.
  TimerWheel wheel(milliseconds(1), 8);
  Clock::time_point t0 = Clock::now();
  std::vector<std::uint32_t> due;
  wheel.advance(t0 + milliseconds(5), due);
  wheel.schedule(3, t0 + milliseconds(3));
  Clock::time_point next = wheel.advance(t0 + milliseconds(5) + std::chrono::microseconds(100), due);
  ASSERT_EQ(due.size(), 1u) << "a past deadline waited for the cursor to come round";
  EXPECT_EQ(due[0], 3u);
  EXPECT_EQ(next, Clock::time_point::max());
}

TEST(TimerWheel, ManyTimersSameSlotAllFire) {
  TimerWheel wheel(milliseconds(1), 8);
  Clock::time_point t0 = Clock::now();
  for (std::uint32_t i = 0; i < 50; ++i) wheel.schedule(i, t0 + milliseconds(3));
  std::vector<std::uint32_t> due;
  wheel.advance(t0 + milliseconds(4), due);
  EXPECT_EQ(due.size(), 50u);
  EXPECT_TRUE(wheel.empty());
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
  // The timer is armed while the fresh loop thread may be on its way to
  // its first park. The thread reads the earliest deadline under the
  // sleep mutex that schedule_at holds, so it either sleeps until this
  // deadline or is already counted as a sleeper and gets poked: its wait
  // never runs the full idle poll past the deadline.
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

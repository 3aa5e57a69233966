// Unit tests for the async scheduler primitives in isolation: the
// TimerWheel's expiry arithmetic and the EventLoop's task state machine
// (notify dedupe, single-runner guarantee, suspend/resume without lost
// wakeups) — the properties the AsyncEngine's correctness rests on.
#include "rt/event_loop.hpp"

#include <gtest/gtest.h>

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
  loop.start();
  loop.notify(0);
  loop.notify(1);
  std::this_thread::sleep_for(milliseconds(100));
  loop.stop();
  EXPECT_TRUE(other_ran.load());
  EXPECT_TRUE(other_ran_before_drain.load())
      << "a yielding task must go to the back of the queue, not starve peers";
}

TEST(EventLoop, TimersNotifyOwnersNearDeadline) {
  std::atomic<int> runs{0};
  Clock::time_point fired_at{};
  EventLoop loop(1, 1, [&](std::uint32_t, std::size_t) {
    if (runs.fetch_add(1) == 0) fired_at = Clock::now();
    return EventLoop::StepResult::kIdle;
  }, blocked_until_resume);
  loop.start();
  Clock::time_point deadline = Clock::now() + milliseconds(30);
  loop.schedule_at(0, deadline);
  std::this_thread::sleep_for(milliseconds(150));
  loop.stop();
  ASSERT_GE(runs.load(), 1);
  EXPECT_GE(fired_at + milliseconds(2), deadline) << "timer fired way too early";
  EXPECT_LE(fired_at, deadline + milliseconds(100)) << "timer fired way too late";
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

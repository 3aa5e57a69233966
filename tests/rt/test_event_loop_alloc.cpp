// Steady-state allocation checks of the event loop: once the timer heap,
// the buffer of fired timers and the run queue have grown, a task that re-arms its own timer at every firing, or
// that is notified from outside the loop, runs round after round without
// touching the heap.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "rt/event_loop.hpp"
#include "support/alloc_counter.hpp"

namespace repro::rt {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kWarmup = 100;
constexpr int kCounted = 400;

/// Allocations over kCounted firings, after kWarmup, of one task that
/// re-arms its own timer `period` ahead at every step. One loop thread, so
/// every firing goes through the same heap, buffer and queue. The count
/// starts and stops inside steps, so it spans exactly those firings.
long long allocs_of_self_rearming_timer(Clock::duration period) {
  std::atomic<int> rounds{0};
  EventLoop loop(1, 1, [&](std::uint32_t task, std::size_t) {
    const int round = rounds.fetch_add(1) + 1;
    if (round == kWarmup) {
      g_alloc_count.store(0);
      g_count_allocs.store(true);
    }
    if (round == kWarmup + kCounted) {
      g_count_allocs.store(false);
    } else {
      loop.schedule_at(task, Clock::now() + period);
    }
    return EventLoop::StepResult::kIdle;
  }, [](std::uint32_t) { return true; });
  loop.start();
  loop.notify(0);
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(5);
  while (rounds.load() < kWarmup + kCounted && Clock::now() < give_up) std::this_thread::yield();
  loop.stop();
  g_count_allocs.store(false);
  EXPECT_EQ(rounds.load(), kWarmup + kCounted);
  return g_alloc_count.load();
}

TEST(EventLoopAlloc, SelfRearmingTimerFiresAllocateNothing) {
  // The thread sleeps until kSpinAhead before each deadline, then polls.
  EXPECT_EQ(allocs_of_self_rearming_timer(std::chrono::microseconds(100)), 0)
      << "steady-state timer firings must not touch the heap";
}

TEST(EventLoopAlloc, SpinningRearmAllocatesNothing) {
  // Each deadline is within kSpinAhead when the thread parks: it polls the
  // clock up to it without sleeping.
  EXPECT_EQ(allocs_of_self_rearming_timer(EventLoop::kSpinAhead / 2), 0)
      << "polled timer firings must not touch the heap";
}

TEST(EventLoopAlloc, ExternalNotifiesAllocateNothing) {
  // Each notify from this thread, which is not a loop thread, goes through
  // the injector: the parked loop thread wakes, drains it into its own
  // queue and runs the task.
  std::atomic<int> runs{0};
  EventLoop loop(1, 1, [&](std::uint32_t, std::size_t) {
    runs.fetch_add(1);
    return EventLoop::StepResult::kIdle;
  }, [](std::uint32_t) { return true; });
  loop.start();
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(5);
  auto notify_and_wait = [&](int round) {
    loop.notify(0);
    while (runs.load() < round && Clock::now() < give_up) std::this_thread::yield();
  };
  for (int round = 1; round <= kWarmup; ++round) notify_and_wait(round);
  g_alloc_count.store(0);
  g_count_allocs.store(true);
  for (int round = kWarmup + 1; round <= kWarmup + kCounted; ++round) notify_and_wait(round);
  g_count_allocs.store(false);
  loop.stop();
  ASSERT_EQ(runs.load(), kWarmup + kCounted);
  EXPECT_EQ(g_alloc_count.load(), 0) << "steady-state injector drains must not touch the heap";
}

}  // namespace
}  // namespace repro::rt

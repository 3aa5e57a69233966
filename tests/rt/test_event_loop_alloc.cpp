// Steady-state allocation check of the event loop's timer path: once the
// timer heap, the buffer of fired timers and the run queue have grown, a
// task that re-arms its own timer at every firing runs round after round
// without touching the heap.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>

#include "rt/event_loop.hpp"

// Allocation-counting hook: every global new in this test binary is counted
// while `g_count_allocs` is set (the pattern of tests/nn/test_compute_path.cpp).
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<long long> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size);
  if (!p) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace repro::rt {
namespace {

using Clock = std::chrono::steady_clock;

TEST(EventLoopAlloc, SelfRearmingTimerFiresAllocateNothing) {
  // One loop thread, so every firing goes through the same heap, buffer and
  // queue: the thread parks until its timer, fires it at its loop top, runs
  // the task and re-arms. The count starts and stops inside steps, so it
  // spans exactly kCounted firings after kWarmup.
  constexpr int kWarmup = 100;
  constexpr int kCounted = 400;
  constexpr auto kPeriod = std::chrono::microseconds(100);
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
      loop.schedule_at(task, Clock::now() + kPeriod);
    }
    return EventLoop::StepResult::kIdle;
  }, [](std::uint32_t) { return true; });
  loop.start();
  loop.notify(0);
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(5);
  while (rounds.load() < kWarmup + kCounted && Clock::now() < give_up) std::this_thread::yield();
  loop.stop();
  g_count_allocs.store(false);
  ASSERT_EQ(rounds.load(), kWarmup + kCounted);
  EXPECT_EQ(g_alloc_count.load(), 0) << "steady-state timer firings must not touch the heap";
}

}  // namespace
}  // namespace repro::rt

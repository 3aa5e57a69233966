#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "support/alloc_counter.hpp"

namespace repro::sim {
namespace {

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(2.0, [&] { order.push_back(2); });
  q.run_until(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 10.0);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  q.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] { ++fired; });
  q.schedule_at(5.0, [&] { ++fired; });
  q.run_until(3.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
  q.run_until(6.0);
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, HandlersCanScheduleMore) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 10) q.schedule_after(1.0, chain);
  };
  q.schedule_at(0.0, chain);
  q.run_until(100.0);
  EXPECT_EQ(count, 10);
}

TEST(EventQueue, SchedulingInThePastThrows) {
  EventQueue q;
  q.schedule_at(5.0, [] {});
  q.run_until(5.0);
  EXPECT_THROW(q.schedule_at(1.0, [] {}), std::invalid_argument);
}

TEST(EventQueue, StepReturnsFalseWhenEmpty) {
  EventQueue q;
  EXPECT_FALSE(q.step());
  q.schedule_at(1.0, [] {});
  EXPECT_TRUE(q.step());
  EXPECT_FALSE(q.step());
}

TEST(EventQueue, ExecutedCounter) {
  EventQueue q;
  for (int i = 0; i < 7; ++i) q.schedule_at(static_cast<double>(i), [] {});
  q.run_until(100.0);
  EXPECT_EQ(q.executed(), 7u);
}

TEST(EventQueue, ClearDropsPending) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] { ++fired; });
  q.clear();
  q.run_until(2.0);
  EXPECT_EQ(fired, 0);
}

TEST(EventQueue, OrderUnderSlotReuseMatchesStableSort) {
  // Interleave scheduling (from outside and from inside handlers) with
  // running, so freed slab slots are reused while older events still wait.
  // Times sit on a 0.5 grid, so many events tie exactly. The reference is
  // a stable sort by (time, insertion order) of whatever is pending.
  EventQueue q;
  common::Pcg32 rng(2024, 11);
  std::set<std::pair<SimTime, std::uint64_t>> model;
  std::vector<std::uint64_t> ran;
  std::vector<std::uint64_t> expected;
  std::uint64_t inserted = 0;

  std::function<void(SimTime)> add = [&](SimTime t) {
    const std::uint64_t id = inserted++;
    model.emplace(t, id);
    q.schedule_at(t, [&, id] {
      ran.push_back(id);
      if (rng.bernoulli(0.3)) add(q.now() + 0.5 * rng.bounded(4));
    });
  };
  while (inserted < 10000) {
    const std::uint32_t burst = rng.bounded(8);
    for (std::uint32_t i = 0; i < burst; ++i) add(q.now() + 0.5 * rng.bounded(12));
    for (std::uint32_t steps = rng.bounded(8); steps > 0 && !model.empty(); --steps) {
      const auto [time, id] = *model.begin();
      model.erase(model.begin());
      expected.push_back(id);
      ASSERT_TRUE(q.step());
      ASSERT_EQ(ran.size(), expected.size());
      ASSERT_EQ(ran.back(), id) << "event " << ran.size() - 1;
      ASSERT_EQ(q.now(), time);
    }
  }
  while (!model.empty()) {
    expected.push_back(model.begin()->second);
    model.erase(model.begin());
    ASSERT_TRUE(q.step());
  }
  EXPECT_FALSE(q.step());
  EXPECT_EQ(ran, expected);
  EXPECT_GE(inserted, 10000u);
}

TEST(EventQueue, SteadyStateSchedulingAllocatesNothing) {
  // A 16-byte capture (a pointer and two 32-bit indices, the sim engine's
  // tuple-event shape) fits std::function's local buffer; once the heap
  // and the slab have grown, scheduling and running allocates nothing.
  EventQueue q;
  std::uint64_t sum = 0;
  std::uint64_t* out = &sum;
  auto schedule_batch = [&](std::uint32_t n) {
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t a = i;
      const std::uint32_t b = i * 3;
      q.schedule_after(static_cast<double>(i % 97) * 1e-3, [out, a, b] { *out += a + b; });
    }
  };
  schedule_batch(10000);  // warm-up: grows the heap, slab and free list
  q.run_until(q.now() + 1.0);

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  schedule_batch(10000);
  q.run_until(q.now() + 1.0);
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0) << "steady-state events must not touch the heap";
  EXPECT_EQ(q.executed(), 20000u);
  EXPECT_EQ(sum, 2u * 4u * (9999u * 10000u / 2u));
}

}  // namespace
}  // namespace repro::sim

// The window-history spine: bounded retention, stable global indices,
// and the flat-memory guarantee behind both engines.
#include "runtime/window_history.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace repro::runtime {
namespace {

dsps::WindowSample sample_at(double t) {
  dsps::WindowSample s;
  s.time = t;
  return s;
}

TEST(WindowHistory, UnboundedKeepsEverything) {
  WindowHistory h;
  EXPECT_FALSE(h.bounded());
  for (int i = 0; i < 100; ++i) h.push(sample_at(i));
  EXPECT_EQ(h.size(), 100u);
  EXPECT_EQ(h.total(), 100u);
  EXPECT_EQ(h.first_index(), 0u);
  EXPECT_DOUBLE_EQ(h.samples().front().time, 0.0);
  EXPECT_DOUBLE_EQ(h.back().time, 99.0);
}

TEST(WindowHistory, BoundedRetainsAtLeastCapacity) {
  WindowHistory h(16);
  EXPECT_TRUE(h.bounded());
  for (int i = 0; i < 1000; ++i) {
    h.push(sample_at(i));
    EXPECT_GE(h.size(), std::min<std::size_t>(static_cast<std::size_t>(i) + 1, 16u));
    EXPECT_LE(h.size(), 31u);  // at most 2*capacity - 1
  }
  EXPECT_EQ(h.total(), 1000u);
  EXPECT_EQ(h.first_index() + h.size(), h.total());
  // The retained block is the contiguous most-recent tail.
  for (std::size_t i = 0; i < h.size(); ++i) {
    EXPECT_DOUBLE_EQ(h.samples()[i].time, static_cast<double>(h.first_index() + i));
  }
}

TEST(WindowHistory, GlobalIndicesStayStableAcrossEviction) {
  WindowHistory h(8);
  for (int i = 0; i < 100; ++i) h.push(sample_at(i));
  // at_global addresses windows by their all-time index.
  for (std::size_t g = h.first_index(); g < h.total(); ++g) {
    EXPECT_DOUBLE_EQ(h.at_global(g).time, static_cast<double>(g));
  }
  EXPECT_THROW(h.at_global(0), std::out_of_range);       // evicted
  EXPECT_THROW(h.at_global(h.total()), std::out_of_range);  // not yet pushed
}

TEST(WindowHistory, StorageHighWaterStaysFlat) {
  // The memory guarantee: a bounded spine never holds more than
  // 2*capacity samples no matter how long it runs.
  WindowHistory h(64);
  for (int i = 0; i < 50'000; ++i) h.push(sample_at(i));
  EXPECT_LE(h.storage_high_water(), 128u);
  EXPECT_EQ(h.total(), 50'000u);
}

TEST(WindowHistory, SetCapacityTruncatesEagerly) {
  WindowHistory h;
  for (int i = 0; i < 100; ++i) h.push(sample_at(i));
  h.set_capacity(10);
  EXPECT_TRUE(h.bounded());
  EXPECT_LE(h.size(), 19u);
  EXPECT_EQ(h.total(), 100u);
  EXPECT_DOUBLE_EQ(h.back().time, 99.0);
}

}  // namespace
}  // namespace repro::runtime

// The shared window finalizers: the topology p99 is the sorted latencies'
// element floor(0.99 * (n - 1)), whatever the selection algorithm.
#include "runtime/window_stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"

namespace repro::runtime {
namespace {

double sorted_p99(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(0.99 * static_cast<double>(v.size() - 1))];
}

TEST(WindowStats, TopologyP99IsTheSortedElement) {
  common::Pcg32 rng(99, 5);
  std::vector<std::size_t> sizes = {1, 2, 99, 100, 101, 1000};
  for (int i = 0; i < 30; ++i) sizes.push_back(1 + rng.bounded(5000));
  for (std::size_t n : sizes) {
    // Heavy duplicates: values drawn from a few distinct levels, in random
    // order, plus a sprinkle of distinct ones.
    std::vector<double> latencies;
    const std::uint32_t levels = 1 + rng.bounded(6);
    for (std::size_t k = 0; k < n; ++k) {
      latencies.push_back(rng.bernoulli(0.9) ? 1e-3 * rng.bounded(levels) : rng.uniform(0.0, 0.01));
    }
    TopologyCounters c;
    c.acked = n;
    c.latencies = latencies;
    const dsps::TopologyWindowStats s = finalize_topology_window(c, 1.0, 0);
    EXPECT_EQ(s.p99_complete_latency, sorted_p99(latencies)) << "n = " << n;
    EXPECT_TRUE(c.latencies.empty());
  }
}

TEST(WindowStats, TopologyP99OfNoAcksIsZero) {
  TopologyCounters c;
  EXPECT_EQ(finalize_topology_window(c, 1.0, 3).p99_complete_latency, 0.0);
}

}  // namespace
}  // namespace repro::runtime

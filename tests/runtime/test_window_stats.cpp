// The shared window finalizers: the topology p99 is the sorted latencies'
// element floor(0.99 * (n - 1)), whatever the selection algorithm, and the
// event loop's histogram reads it back within its stated error.
#include "runtime/window_stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"

namespace repro::runtime {
namespace {

double sorted_p99(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(0.99 * static_cast<double>(v.size() - 1))];
}

/// Window latency sets of many sizes with heavy duplicates: values drawn
/// from a few distinct levels, in random order, plus a sprinkle of
/// distinct ones.
std::vector<std::vector<double>> latency_windows() {
  common::Pcg32 rng(99, 5);
  std::vector<std::size_t> sizes = {1, 2, 99, 100, 101, 1000};
  for (int i = 0; i < 30; ++i) sizes.push_back(1 + rng.bounded(5000));
  std::vector<std::vector<double>> windows;
  for (std::size_t n : sizes) {
    std::vector<double> latencies;
    const std::uint32_t levels = 1 + rng.bounded(6);
    for (std::size_t k = 0; k < n; ++k) {
      latencies.push_back(rng.bernoulli(0.9) ? 1e-3 * rng.bounded(levels) : rng.uniform(0.0, 0.01));
    }
    windows.push_back(std::move(latencies));
  }
  return windows;
}

/// LatencyHistogram's stated error: 1/128 of the value, plus 1 ns.
double histogram_error(double exact) { return exact / 128.0 + 1e-9; }

TEST(WindowStats, TopologyP99IsTheSortedElement) {
  for (const std::vector<double>& latencies : latency_windows()) {
    const std::size_t n = latencies.size();
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
  c.p99_source = P99Source::kHistogram;
  EXPECT_EQ(finalize_topology_window(c, 1.0, 3).p99_complete_latency, 0.0);
}

TEST(WindowStats, HistogramP99IsWithinItsErrorOfTheSortedElement) {
  TopologyCounters c;
  c.p99_source = P99Source::kHistogram;
  for (const std::vector<double>& latencies : latency_windows()) {
    const std::size_t n = latencies.size();
    for (double latency : latencies) c.record_latency(latency);
    EXPECT_TRUE(c.latencies.empty()) << "the histogram keeps no per-ack entry";
    const double exact = sorted_p99(latencies);
    const dsps::TopologyWindowStats s = finalize_topology_window(c, 1.0, 0);
    EXPECT_NEAR(s.p99_complete_latency, exact, histogram_error(exact)) << "n = " << n;
    EXPECT_EQ(s.acked, n);
    // The window reset leaves the histogram empty for the next window.
    EXPECT_EQ(c.latency_hist.count(), 0u);
    EXPECT_EQ(c.p99_source, P99Source::kHistogram);
  }
}

TEST(LatencyHistogram, EveryRankIsWithinItsErrorOfTheSortedElement) {
  common::Pcg32 rng(7, 3);
  std::vector<double> values;
  LatencyHistogram h;
  EXPECT_EQ(h.element(0), 0.0) << "an empty histogram reads 0";
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform from 10 ns to 10 s: exact buckets and wide ones.
    const double v = 1e-8 * std::pow(10.0, rng.uniform(0.0, 9.0));
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  ASSERT_EQ(h.count(), values.size());
  for (std::size_t rank = 0; rank < values.size(); rank += 7) {
    EXPECT_NEAR(h.element(rank), values[rank], histogram_error(values[rank])) << rank;
  }
  EXPECT_NEAR(h.element(values.size() - 1), values.back(), histogram_error(values.back()));

  h.clear();
  EXPECT_EQ(h.count(), 0u);
  h.record(-1.0);  // a negative duration reads as 0
  h.record(3e-6);
  EXPECT_EQ(h.element(0), 0.0);
  EXPECT_NEAR(h.element(1), 3e-6, histogram_error(3e-6));
}

}  // namespace
}  // namespace repro::runtime

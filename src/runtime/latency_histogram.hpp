#pragma once
// Fixed-memory latency histogram: the event loop's source of a window's p99
// complete latency, where one vector entry per acked root would make the
// window's memory follow the ack rate.
#include <cstddef>
#include <cstdint>
#include <vector>

namespace repro::runtime {

/// Log-bucketed histogram of non-negative durations, recorded in whole
/// nanoseconds with the bucket scheme of perfbench's LogHistogram: values
/// below 128 ns land in exact buckets, above that every power of two is
/// split into 128 sub-buckets. An element read back lies in the bucket of
/// the true element, so it is within 1/128 of it plus 1 ns (recording
/// rounds to whole nanoseconds). The buckets (58 KB) are allocated on the
/// first record and keep their memory across clear().
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) * kSub;

  /// Record one duration in seconds (a negative one reads as 0).
  void record(double seconds);
  std::uint64_t count() const { return count_; }
  /// The element of 0-based `rank` (< count()) in ascending order, in
  /// seconds, interpolated inside its bucket.
  double element(std::uint64_t rank) const;
  /// Forget every sample; the buckets keep their memory.
  void clear();

 private:
  std::vector<std::uint64_t> buckets_;  ///< empty until the first record
  std::uint64_t count_ = 0;
  std::uint64_t max_ = 0;  ///< largest recorded value, ns
};

}  // namespace repro::runtime

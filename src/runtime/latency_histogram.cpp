#include "runtime/latency_histogram.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace repro::runtime {
namespace {

using H = LatencyHistogram;

std::size_t bucket_of(std::uint64_t v) {
  if (v < H::kSub) return static_cast<std::size_t>(v);
  const int exp = 63 - std::countl_zero(v);  // >= kSubBits
  const std::uint64_t sub = (v >> (exp - H::kSubBits)) - H::kSub;
  return static_cast<std::size_t>(exp - H::kSubBits + 1) * H::kSub + static_cast<std::size_t>(sub);
}

/// Bucket i covers the integers [lower, lower + width).
void bucket_range(std::size_t i, double& lower, double& width) {
  if (i < H::kSub) {
    lower = static_cast<double>(i);
    width = 1.0;
    return;
  }
  const int shift = static_cast<int>(i / H::kSub) - 1;
  lower = std::ldexp(static_cast<double>(H::kSub + i % H::kSub), shift);
  width = std::ldexp(1.0, shift);
}

}  // namespace

void LatencyHistogram::record(double seconds) {
  if (buckets_.empty()) buckets_.assign(kBuckets, 0);
  const double ns = std::round(seconds * 1e9);
  std::uint64_t v = 0;
  if (ns >= 0x1p64) {
    v = std::numeric_limits<std::uint64_t>::max();
  } else if (ns > 0.0) {
    v = static_cast<std::uint64_t>(ns);
  }
  ++buckets_[bucket_of(v)];
  ++count_;
  max_ = std::max(max_, v);
}

double LatencyHistogram::element(std::uint64_t rank) const {
  if (count_ == 0) return 0.0;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (rank < seen + buckets_[i]) {
      double lower = 0.0;
      double width = 0.0;
      bucket_range(i, lower, width);
      if (width <= 1.0) return lower * 1e-9;  // exact bucket
      // Spread the bucket's samples evenly over its range and read the
      // rank's position, as LogHistogram::percentile does.
      const double pos =
          (static_cast<double>(rank - seen) + 0.5) / static_cast<double>(buckets_[i]);
      return std::min(lower + pos * width, static_cast<double>(max_)) * 1e-9;
    }
    seen += buckets_[i];
  }
  return static_cast<double>(max_) * 1e-9;
}

void LatencyHistogram::clear() {
  if (count_ == 0) return;
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  max_ = 0;
}

}  // namespace repro::runtime

#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <numeric>
#include <stdexcept>

namespace perfbench {

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// --- LogHistogram -------------------------------------------------------------

namespace {

std::size_t bucket_of(std::uint64_t v) {
  if (v < LogHistogram::kSub) return static_cast<std::size_t>(v);
  const int exp = 63 - std::countl_zero(v);  // >= kSubBits
  const std::uint64_t sub = (v >> (exp - LogHistogram::kSubBits)) - LogHistogram::kSub;
  return static_cast<std::size_t>(exp - LogHistogram::kSubBits + 1) * LogHistogram::kSub +
         static_cast<std::size_t>(sub);
}

/// Bucket i covers the integers [lower, lower + width).
void bucket_range(std::size_t i, double& lower, double& width) {
  if (i < LogHistogram::kSub) {
    lower = static_cast<double>(i);
    width = 1.0;
    return;
  }
  const int exp = static_cast<int>(i / LogHistogram::kSub) + LogHistogram::kSubBits - 1;
  const std::uint64_t sub = i % LogHistogram::kSub;
  const int shift = exp - LogHistogram::kSubBits;
  lower = std::ldexp(static_cast<double>(LogHistogram::kSub + sub), shift);
  width = std::ldexp(1.0, shift);
}

}  // namespace

void LogHistogram::record(std::uint64_t value) {
  ++buckets_[bucket_of(value)];
  ++count_;
  max_ = std::max(max_, value);
}

void LogHistogram::merge(const LogHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  max_ = std::max(max_, other.max_);
}

double LogHistogram::percentile(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (seen + buckets_[i] >= rank) {
      // Spread the bucket's samples evenly over its range and read the
      // rank's position, so the estimate moves with the counts instead of
      // snapping to one value per bucket.
      double lower = 0.0;
      double width = 0.0;
      bucket_range(i, lower, width);
      if (width <= 1.0) return lower;  // exact bucket
      const double pos = (static_cast<double>(rank - seen) - 0.5) /
                         static_cast<double>(buckets_[i]);
      return std::min(lower + pos * width, static_cast<double>(max_));
    }
    seen += buckets_[i];
  }
  return static_cast<double>(max_);
}

double exact_percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size()))));
  return values[std::min(rank, values.size()) - 1];
}

std::vector<std::size_t> fastest_quarter(const std::vector<double>& times) {
  std::vector<std::size_t> order(times.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return times[a] < times[b]; });
  order.resize(std::min(order.size(), std::max<std::size_t>(1, times.size() / 4)));
  return order;
}

double fastest_quarter_mean(const std::vector<double>& times) {
  const std::vector<std::size_t> keep = fastest_quarter(times);
  double sum = 0.0;
  for (std::size_t i : keep) sum += times[i];
  return keep.empty() ? 0.0 : sum / static_cast<double>(keep.size());
}

// --- CpuRotation --------------------------------------------------------------

namespace {

void set_cpus(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

}  // namespace

CpuRotation::CpuRotation() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() { set_cpus(cpus_); }

void CpuRotation::pin(std::size_t i) const {
  if (!cpus_.empty()) set_cpus({cpus_[i % cpus_.size()]});
}

// --- SpanLog ------------------------------------------------------------------

std::uint32_t SpanLog::begin(const char* name, std::uint32_t parent, std::uint32_t run,
                             std::uint64_t req) {
  const std::size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= spans_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return kFull;
  }
  const std::int64_t t = now_ns();
  spans_[slot] = Span{name, t, t, parent, run, req};
  return static_cast<std::uint32_t>(slot);
}

void SpanLog::end(std::uint32_t id) {
  if (id < spans_.size()) spans_[id].end_ns = now_ns();
}

void SpanLog::set_parent(std::uint32_t id, std::uint32_t parent) {
  if (id < spans_.size()) spans_[id].parent = parent;
}

std::size_t SpanLog::size() const {
  return std::min(next_.load(std::memory_order_relaxed), spans_.size());
}

std::vector<SpanLog::Summary> SpanLog::summarize() const {
  const std::size_t n = size();
  // Child coverage per parent, clipped to the parent's interval.
  std::vector<std::int64_t> covered(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    if (s.parent >= n) continue;
    const Span& p = spans_[s.parent];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) covered[s.parent] += hi - lo;
  }
  std::map<std::string, Summary> by_name;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    Summary& sum = by_name[s.name];
    sum.name = s.name;
    const std::int64_t dur = s.end_ns - s.start_ns;
    ++sum.count;
    sum.total_ms += static_cast<double>(dur) * 1e-6;
    sum.self_ms += static_cast<double>(std::max<std::int64_t>(0, dur - covered[i])) * 1e-6;
  }
  std::vector<Summary> out;
  for (auto& [name, sum] : by_name) out.push_back(sum);
  return out;
}

bool SpanLog::write_jsonl(const std::string& path, const std::string& header_json) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::size_t n = size();
  const std::int64_t origin = n > 0 ? spans_[0].start_ns : 0;
  out << "{\"header\": " << header_json << ", \"spans\": " << n
      << ", \"dropped\": " << dropped() << "}\n";
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name << "\", \"start_us\": "
        << json_number(static_cast<double>(s.start_ns - origin) * 1e-3)
        << ", \"end_us\": " << json_number(static_cast<double>(s.end_ns - origin) * 1e-3)
        << ", \"parent\": ";
    if (s.parent == kNoParent || s.parent >= n) {
      out << "null";
    } else {
      out << s.parent;
    }
    out << ", \"run\": " << s.run << ", \"req\": " << s.req << "}\n";
  }
  out.flush();
  return static_cast<bool>(out);
}

// --- gates ----------------------------------------------------------------------

std::vector<std::string> check_live(const LiveTotalsRow& r) {
  std::vector<std::string> bad;
  auto num = [](std::uint64_t v) { return std::to_string(v); };
  if (r.acked + r.failed > r.roots) {
    bad.push_back("acked + failed (" + num(r.acked + r.failed) + ") exceeds roots (" +
                  num(r.roots) + ")");
  } else if (r.roots - r.acked - r.failed > r.max_spout_pending) {
    bad.push_back("in-flight roots (" + num(r.roots - r.acked - r.failed) +
                  ") exceed max_spout_pending (" + num(r.max_spout_pending) + ")");
  }
  if (r.failed != 0) bad.push_back("failed roots: " + num(r.failed));
  if (r.lost != 0) bad.push_back("lost tuples: " + num(r.lost));
  if (r.shed != 0) bad.push_back("shed tuples: " + num(r.shed));
  if (r.counter_executed != r.acked) {
    bad.push_back("counter executions (" + num(r.counter_executed) + ") != acked (" +
                  num(r.acked) + ")");
  }
  return bad;
}

std::vector<std::string> check_schedule(std::uint64_t roots, double rate, double seconds) {
  const double expected = rate * seconds;
  if (expected <= 0.0 || std::abs(static_cast<double>(roots) - expected) > 0.01 * expected) {
    return {"generator fell off its schedule: " + std::to_string(roots) + " roots against " +
            json_number(expected) + " scheduled"};
  }
  return {};
}

std::vector<std::string> check_sim(const std::vector<SimTotalsRow>& rows) {
  std::vector<std::string> bad;
  if (rows.empty()) return {"no evaluation ran"};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SimTotalsRow& r = rows[i];
    const std::string tag = "evaluation " + std::to_string(i) + ": ";
    if (r.acked + r.failed > r.roots) {
      bad.push_back(tag + "acked + failed exceeds roots");
    } else if (r.roots - r.acked - r.failed > r.max_spout_pending) {
      bad.push_back(tag + "in-flight roots exceed max_spout_pending");
    }
    if (r.shed != 0) bad.push_back(tag + "shed tuples: " + std::to_string(r.shed));
    if (r.executed == 0) bad.push_back(tag + "executed no tuples");
    if (r.executed != rows[0].executed) {
      bad.push_back(tag + "executed " + std::to_string(r.executed) + " sim tuples, evaluation 0 " +
                    std::to_string(rows[0].executed));
    }
  }
  return bad;
}

// --- report -----------------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void Report::add(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

double Report::get(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return m.value;
  }
  throw std::out_of_range("perfbench: no metric " + name);
}

void Report::print(const std::string& prefix) const {
  for (const Metric& m : metrics_) {
    std::printf("%s%s = %s %s\n", prefix.c_str(), m.name.c_str(), json_number(m.value).c_str(),
                m.unit.c_str());
  }
}

std::string Report::json_line(std::uint64_t attempted, std::uint64_t failed,
                              const std::vector<std::string>& names) const {
  std::string out = "{\"correct\": true, \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics_) {
    if (std::find(names.begin(), names.end(), m.name) == names.end()) continue;
    out += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + json_number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  return out + "}}";
}

}  // namespace perfbench

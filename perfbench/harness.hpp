#pragma once
// Harness pieces shared by the benchmark workloads: a bounded
// log-bucketed histogram, a pre-sized span log, the correctness gates and
// the metric report that prints the final JSON line.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU (user + system) seconds so far, from getrusage.
double process_cpu_seconds();
/// Peak resident set of this process in MiB, from getrusage.
double peak_rss_mb();

/// Bounded histogram of non-negative integer samples (nanoseconds here).
/// Values below 128 land in exact buckets; above that every power of two
/// is split into 128 sub-buckets, and a percentile is interpolated inside
/// its bucket, so it lies within 1/128 of the true sample. Memory is fixed
/// (7424 buckets) whatever the sample count, so a long run measures the
/// program, not the recorder.
class LogHistogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) * kSub;

  void record(std::uint64_t value);
  void merge(const LogHistogram& other);
  std::uint64_t count() const { return count_; }
  std::uint64_t max() const { return max_; }
  /// Nearest-rank percentile, q in (0, 1]; 0 when empty.
  double percentile(double q) const;

 private:
  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(kBuckets, 0);
  std::uint64_t count_ = 0;
  std::uint64_t max_ = 0;
};

/// One traced interval. `parent` is the index of the span that caused it
/// (kNoParent for a root); `run` is the measured pass or evaluation the
/// span belongs to; `req` identifies the request (the generator sequence
/// number of a root tuple, or the evaluation round), shared by every span
/// of that request.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = 0;
  std::uint32_t run = 0;
  std::uint64_t req = 0;
};

/// Spans in pre-sized memory, written once at exit. Slots are claimed
/// with one atomic increment, so loop threads record concurrently without
/// a lock; each slot is written by one thread and read only after the
/// engine's threads are joined. Spans beyond the capacity are counted as
/// dropped, never allocated.
class SpanLog {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  static constexpr std::uint32_t kFull = 0xfffffffeu;

  explicit SpanLog(std::size_t capacity) : spans_(capacity) {}

  /// Open a span starting now; returns its index, or kFull when out of
  /// room. The thread that opened a span closes it.
  std::uint32_t begin(const char* name, std::uint32_t parent, std::uint32_t run,
                      std::uint64_t req);
  /// Close span `id` now (no-op for kFull).
  void end(std::uint32_t id);
  /// Re-parent span `id` (for a caller whose own span closes later).
  void set_parent(std::uint32_t id, std::uint32_t parent);
  std::size_t size() const;
  std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  const Span& at(std::size_t i) const { return spans_[i]; }

  /// Per span name: count, total duration and self time (duration minus
  /// the part of its interval that its child spans cover).
  struct Summary {
    std::string name;
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::vector<Summary> summarize() const;

  /// Writes one JSON object per line: a header carrying `header_json`
  /// fields, then every span. Returns false when the file cannot be written.
  bool write_jsonl(const std::string& path, const std::string& header_json) const;

 private:
  std::vector<Span> spans_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

// --- correctness gates ------------------------------------------------------
// Each returns the violated identities in words; empty means the run passed.

/// Totals of a live (async backend) run, read after stop().
struct LiveTotalsRow {
  std::uint64_t roots = 0;
  std::uint64_t acked = 0;
  std::uint64_t failed = 0;
  std::uint64_t lost = 0;
  std::uint64_t shed = 0;
  std::uint64_t counter_executed = 0;  ///< executed_per_task summed over the counters
  std::uint64_t max_spout_pending = 0;
};
std::vector<std::string> check_live(const LiveTotalsRow& row);

/// The open-loop generator kept its schedule: `roots` within 1% of
/// rate x duration.
std::vector<std::string> check_schedule(std::uint64_t roots, double rate, double seconds);

/// Totals of one sim course evaluation.
struct SimTotalsRow {
  std::uint64_t roots = 0;
  std::uint64_t acked = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;
  std::uint64_t executed = 0;
  std::uint64_t max_spout_pending = 0;  ///< summed over spout tasks
};
/// Identities per evaluation, plus: every evaluation of one invocation
/// executed exactly the same number of sim tuples.
std::vector<std::string> check_sim(const std::vector<SimTotalsRow>& rows);

// --- report -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Named metrics of one run. print() writes one `name = value unit` line
/// per metric; json_line() is the final result line.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& metrics() const { return metrics_; }
  double get(const std::string& name) const;
  void print(const std::string& prefix) const;
  /// The result object: correct/attempted/failed and the metrics named in
  /// `names`, in report order.
  std::string json_line(std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<std::string>& names) const;

 private:
  std::vector<Metric> metrics_;
};

/// Percentile of a sample (nearest rank, q in (0, 1]); 0 when empty.
double exact_percentile(std::vector<double> values, double q);

/// Indices of the fastest (smallest) quarter of `times`, at least one,
/// fastest first. On a shared host a timed repetition runs slower than the
/// code alone would, never faster, so every repeated timing in this
/// benchmark is read from its fastest quarter.
std::vector<std::size_t> fastest_quarter(const std::vector<double>& times);
/// Mean of the fastest quarter of `times`; 0 when empty.
double fastest_quarter_mean(const std::vector<double>& times);

/// Moves the calling thread over the CPUs it may run on and restores its
/// CPU set when destroyed. On a shared host one vCPU can run 1.5-2x slow
/// for tens of seconds while the others do not, and a thread left alone
/// stays on its CPU; repetitions pinned to each CPU in turn let their
/// fastest quarter read the code's speed, not that one CPU's.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pin the calling thread to the (i mod n)-th of the n allowed CPUs.
  void pin(std::size_t i) const;

 private:
  std::vector<int> cpus_;  ///< the thread's CPU set at construction
};

/// JSON number with every digit (NaN/inf are reported as 0: JSON has no
/// spelling for them).
std::string json_number(double v);

}  // namespace perfbench

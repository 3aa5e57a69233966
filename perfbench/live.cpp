// live-steady / live-saturate: the paper's URL-count graph on the async
// backend (rt::AsyncEngine), fed by the benchmark's own open-loop spout.
//
//   urls (1, open loop) --dynamic--> counter (4) --fields(url)--> aggregator (2)
//
// The spout stamps each tuple with its scheduled creation time; a thin
// wrapper around apps::PartialUrlCounter records scheduled (or emitted)
// time -> end of execute into per-task bounded histograms.
#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "apps/url_count.hpp"
#include "common/rng.hpp"
#include "dsps/topology.hpp"
#include "rt/async_engine.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace repro;

constexpr std::size_t kCounters = 4;
constexpr std::size_t kAggregators = 2;
constexpr std::size_t kWorkers = 6;
constexpr std::size_t kUrls = 400;
constexpr double kZipfS = 1.0;
constexpr double kWarmupSeconds = 1.0;
constexpr double kDrainSeconds = 0.05;
constexpr int kSetupReps = 25;
/// The measured interval is cut into this many equal segments; latency
/// percentiles and throughput are medians over the segments, so one
/// stalled segment does not move a run's figure.
constexpr std::size_t kSegments = 10;
constexpr double kSlowSeconds = 1e-3;     ///< tail diagnostic: "slow" tuple
constexpr double kBoundaryShare = 0.1;  ///< "just after a boundary": first 10% of a window
constexpr std::size_t kSpanCapacity = std::size_t{1} << 18;
constexpr double kSampledRoots = 50000.0;  ///< roots traced per pass, roughly

struct Shape {
  double rate;                    ///< offered roots/s
  std::size_t batch_size;
  std::size_t queue_capacity;     ///< 0 = unbounded queues
  std::size_t max_spout_pending;
  double window_seconds;          ///< metrics / on_window cadence
  unsigned spare_cpus;            ///< CPUs left free of loop threads
  bool from_schedule;             ///< latency origin: scheduled (open loop) or emitted time
};

Shape shape_of(const std::string& workload) {
  // live-steady: ~45% of the batch-1 saturation rate; tuple-at-a-time path.
  // One CPU stays free for the metrics thread.
  if (workload == "live-steady") return {50000.0, 1, 0, 5000, 1.0, 1, true};
  // live-saturate: overdriven far above capacity; batching + backpressure.
  // Two spare CPUs: with nproc - 1 loop threads the single spout task,
  // the bottleneck here, lost throughput to stealing and wakeup traffic
  // and the runs spread several times wider. Short windows keep the
  // engine's per-window latency vector (one entry per ack) small, so peak
  // RSS follows the data path rather than that vector's doubling steps.
  if (workload == "live-saturate") return {3e6, 64, 256, 16384, 0.1, 2, false};
  throw std::invalid_argument("perfbench: unknown live workload " + workload);
}

/// State one engine's spout and counter wrappers share with the benchmark
/// thread. Times are engine seconds (AsyncEngine time since start()).
struct Probe {
  struct alignas(64) CounterSlot {
    std::array<LogHistogram, kSegments> latency;  ///< ns, per measured segment
    std::uint64_t slow = 0;              ///< recorded tuples above kSlowSeconds
    std::uint64_t slow_at_boundary = 0;  ///< ... whose origin lay just after a boundary
    std::uint64_t exec_ns = 0;           ///< traced: wrapped execute self time
    std::uint64_t exec_count = 0;
  };

  Shape shape{};
  std::uint64_t seed = 1;
  SpanLog* spans = nullptr;  ///< traced pass only
  std::uint64_t span_stride = 1;
  std::atomic<double> record_from{std::numeric_limits<double>::infinity()};
  std::atomic<double> record_to{std::numeric_limits<double>::infinity()};
  std::atomic<double> segment_seconds{1.0};
  std::atomic<double> first_due{0.0};
  LogHistogram lag;  ///< traced: emission - schedule (written by the one spout task)
  std::array<CounterSlot, kCounters> counters{};
};

/// Open-loop generator: tuple k is due at t0 + k / rate. It never emits
/// ahead of schedule and, when late, emits every overdue tuple as fast as
/// the engine polls. Seeded Zipf URLs.
class OpenLoopSpout final : public dsps::Spout {
 public:
  explicit OpenLoopSpout(Probe& probe)
      : probe_(probe), zipf_(kUrls, kZipfS, probe.seed), period_(1.0 / probe.shape.rate) {
    urls_.reserve(kUrls);
    for (std::size_t i = 0; i < kUrls; ++i) urls_.push_back("url-" + std::to_string(i));
  }

  double next_delay(sim::SimTime now) override {
    start(now);
    return std::max(0.0, due() - now);
  }

  std::optional<dsps::Values> next(sim::SimTime now) override {
    start(now);
    const double due_at = due();
    if (due_at > now) return std::nullopt;
    const std::uint64_t k = next_++;
    if (probe_.spans == nullptr) return dsps::Values{urls_[zipf_.sample()], due_at};

    const bool sampled = k % probe_.span_stride == 0;
    const std::uint32_t span =
        sampled ? probe_.spans->begin("gen.next", SpanLog::kNoParent, 0, k) : SpanLog::kFull;
    dsps::Values values{urls_[zipf_.sample()], due_at};
    probe_.lag.record(static_cast<std::uint64_t>((now - due_at) * 1e9));
    if (span != SpanLog::kFull) {
      probe_.spans->end(span);
      values.emplace_back(static_cast<std::int64_t>(span));
    }
    return values;
  }

 private:
  void start(double now) {
    if (t0_ >= 0.0) return;
    t0_ = now;
    probe_.first_due.store(now, std::memory_order_relaxed);
  }
  double due() const { return t0_ + static_cast<double>(next_) * period_; }

  Probe& probe_;
  common::ZipfSampler zipf_;
  std::vector<std::string> urls_;
  double period_;
  double t0_ = -1.0;
  std::uint64_t next_ = 0;
};

/// apps::PartialUrlCounter plus the latency probe: after the wrapped
/// execute it records origin -> now for tuples whose root left the spout
/// inside the measured interval.
class TimedCounter final : public dsps::Bolt {
 public:
  explicit TimedCounter(Probe& probe) : probe_(probe) {}

  void prepare(std::size_t task_index, std::size_t peer_count) override {
    inner_.prepare(task_index, peer_count);
    slot_ = &probe_.counters.at(task_index);
  }

  void execute(const dsps::Tuple& input, dsps::OutputCollector& out) override {
    SpanLog* spans = probe_.spans;
    std::uint32_t span = SpanLog::kFull;
    std::int64_t begin = 0;
    if (spans != nullptr) {
      begin = now_ns();
      if (input.values.size() > 2) {
        // The spout closed the parent before emitting, so its slot is
        // complete here; the execute span joins the parent's request.
        const auto parent = static_cast<std::uint32_t>(input.as_int(2));
        span = spans->begin("apps.execute", parent, 0, spans->at(parent).req);
      }
    }
    inner_.execute(input, out);
    if (spans != nullptr) {
      spans->end(span);
      slot_->exec_ns += static_cast<std::uint64_t>(now_ns() - begin);
      ++slot_->exec_count;
    }
    const double end = out.now();
    const double emitted = input.root_emit_time;
    if (emitted < probe_.record_from.load(std::memory_order_relaxed) ||
        emitted >= probe_.record_to.load(std::memory_order_relaxed)) {
      return;
    }
    const double origin = probe_.shape.from_schedule ? input.as_double(1) : emitted;
    const double latency = std::max(0.0, end - origin);
    const auto segment = static_cast<std::size_t>(
        (emitted - probe_.record_from.load(std::memory_order_relaxed)) /
        probe_.segment_seconds.load(std::memory_order_relaxed));
    slot_->latency[std::min(segment, kSegments - 1)].record(
        static_cast<std::uint64_t>(latency * 1e9));
    if (latency > kSlowSeconds) {
      ++slot_->slow;
      if (std::fmod(origin, probe_.shape.window_seconds) <
          kBoundaryShare * probe_.shape.window_seconds) ++slot_->slow_at_boundary;
    }
  }

  void on_window(sim::SimTime now, dsps::OutputCollector& out) override {
    std::uint32_t span = probe_.spans != nullptr
                             ? probe_.spans->begin("apps.on_window", SpanLog::kNoParent, 0, 0)
                             : SpanLog::kFull;
    inner_.on_window(now, out);
    if (probe_.spans != nullptr) probe_.spans->end(span);
  }

  double tuple_cost(const dsps::Tuple& input) const override { return inner_.tuple_cost(input); }

 private:
  Probe& probe_;
  Probe::CounterSlot* slot_ = nullptr;
  apps::PartialUrlCounter inner_;
};

unsigned loop_threads(const Shape& s, unsigned nproc) {
  return nproc > s.spare_cpus ? nproc - s.spare_cpus : 1;
}

std::unique_ptr<rt::AsyncEngine> make_engine(const std::shared_ptr<Probe>& probe,
                                             unsigned nproc) {
  dsps::TopologyBuilder builder("perfbench-url-count");
  builder.set_spout("urls", [probe] { return std::make_unique<OpenLoopSpout>(*probe); });
  builder.set_bolt("counter", [probe] { return std::make_unique<TimedCounter>(*probe); },
                   kCounters)
      .dynamic_grouping("urls");
  builder.set_bolt("aggregator", [] { return std::make_unique<apps::UrlAggregator>(); },
                   kAggregators)
      .fields_grouping("counter", {0});

  const Shape& s = probe->shape;
  rt::AsyncConfig cfg;
  cfg.workers = kWorkers;
  cfg.threads = loop_threads(s, nproc);
  cfg.window_seconds = s.window_seconds;
  cfg.batch_size = s.batch_size;
  cfg.max_spout_pending = s.max_spout_pending;
  if (s.queue_capacity > 0) {
    cfg.flow.policy = runtime::OverflowPolicy::kBlockUpstream;
    cfg.flow.queue_capacity = s.queue_capacity;
  }
  return std::make_unique<rt::AsyncEngine>(builder.build(), cfg);
}

void wait_engine_time(const rt::AsyncEngine& engine, double t) {
  while (true) {
    const double left = t - engine.now_seconds();
    if (left <= 0.0) return;
    std::this_thread::sleep_for(std::chrono::duration<double>(std::min(left, 0.005)));
  }
}

std::uint64_t sum_range(const std::vector<std::uint64_t>& v, std::size_t lo, std::size_t hi) {
  std::uint64_t s = 0;
  for (std::size_t i = lo; i < hi; ++i) s += v[i];
  return s;
}

/// Everything one measured pass yields.
struct Pass {
  std::array<double, kSegments> throughput{};     ///< acked roots/s per segment
  std::array<LogHistogram, kSegments> latency{};  ///< ns, per segment
  LogHistogram all_latency;                        ///< ns, whole measured interval
  std::uint64_t slow = 0;
  std::uint64_t slow_at_boundary = 0;
  LiveTotalsRow row;
  double run_seconds = 0.0;  ///< first due tuple -> stop
  Report layers;             ///< per-layer numbers of this pass

  double median_throughput() const {
    return exact_percentile({throughput.begin(), throughput.end()}, 0.5);
  }
  /// Median over the segments of each segment's q-percentile, in ms.
  double latency_ms(double q) const {
    std::vector<double> per_segment;
    for (const LogHistogram& h : latency) per_segment.push_back(h.percentile(q) * 1e-6);
    return exact_percentile(per_segment, 0.5);
  }
};

/// Build, start, warm up, measure `seconds`, stop, check. `setup_s`, when
/// given, first receives kSetupReps timings of topology build + engine
/// construction on throwaway engines.
Pass run_pass(const Shape& shape, const RunOptions& o, SpanLog* spans,
              std::vector<double>* setup_s) {
  auto make_probe = [&] {
    auto p = std::make_shared<Probe>();
    p->shape = shape;
    p->seed = o.seed;
    p->spans = spans;
    p->span_stride = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(shape.rate * (kWarmupSeconds + o.seconds) / kSampledRoots));
    return p;
  };

  if (setup_s != nullptr) {
    // Restores the CPU set before the measured engine starts: its threads
    // inherit the creating thread's set.
    const CpuRotation rotation;
    for (int r = 0; r < kSetupReps; ++r) {
      rotation.pin(static_cast<std::size_t>(r));
      std::shared_ptr<Probe> throwaway = make_probe();
      throwaway->spans = nullptr;
      const std::int64_t t0 = now_ns();
      std::unique_ptr<rt::AsyncEngine> e = make_engine(throwaway, o.nproc);
      setup_s->push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    }
  }
  std::shared_ptr<Probe> probe = make_probe();
  std::unique_ptr<rt::AsyncEngine> engine = make_engine(probe, o.nproc);
  engine->start();

  wait_engine_time(*engine, kWarmupSeconds);
  const double t_a = engine->now_seconds();
  const double segment_seconds = o.seconds / static_cast<double>(kSegments);
  probe->segment_seconds.store(segment_seconds, std::memory_order_relaxed);
  probe->record_from.store(t_a, std::memory_order_relaxed);
  probe->record_to.store(t_a + o.seconds, std::memory_order_relaxed);
  const double cpu_a = process_cpu_seconds();
  const dsps::SchedulerWindowStats sched_a = engine->scheduler_totals();
  const std::vector<std::uint64_t> exec_a = engine->executed_per_task();

  Pass pass;
  double t_seg = t_a;
  std::uint64_t acked_seg = engine->totals().acked;
  for (std::size_t s = 0; s < kSegments; ++s) {
    wait_engine_time(*engine, t_a + segment_seconds * static_cast<double>(s + 1));
    const double t = engine->now_seconds();
    const std::uint64_t acked = engine->totals().acked;
    pass.throughput[s] = static_cast<double>(acked - acked_seg) / (t - t_seg);
    t_seg = t;
    acked_seg = acked;
  }
  const double t_b = t_seg;
  const double cpu_b = process_cpu_seconds();
  const dsps::SchedulerWindowStats sched_b = engine->scheduler_totals();
  const std::vector<std::uint64_t> exec_b = engine->executed_per_task();

  wait_engine_time(*engine, t_b + kDrainSeconds);
  const double t_stop = engine->now_seconds();
  engine->stop();

  pass.run_seconds = t_stop - probe->first_due.load(std::memory_order_relaxed);
  std::uint64_t exec_ns = 0;
  std::uint64_t exec_count = 0;
  for (const Probe::CounterSlot& c : probe->counters) {
    for (std::size_t s = 0; s < kSegments; ++s) {
      pass.latency[s].merge(c.latency[s]);
      pass.all_latency.merge(c.latency[s]);
    }
    pass.slow += c.slow;
    pass.slow_at_boundary += c.slow_at_boundary;
    exec_ns += c.exec_ns;
    exec_count += c.exec_count;
  }

  const rt::RtTotals totals = engine->totals();
  const std::vector<std::uint64_t> executed = engine->executed_per_task();
  const auto [c_lo, c_hi] = engine->tasks_of("counter");
  pass.row.roots = totals.roots_emitted;
  pass.row.acked = totals.acked;
  pass.row.failed = totals.failed;
  pass.row.lost = totals.lost;
  pass.row.shed = totals.dropped_overflow;
  pass.row.counter_executed = sum_range(executed, c_lo, c_hi);
  pass.row.max_spout_pending = shape.max_spout_pending;

  // --- per-layer numbers over the measured interval -------------------------
  std::uint64_t pending_peak = 0;
  std::size_t queue_peak = 0;
  double wait_sum = 0.0;
  double wait_n = 0.0;
  for (const dsps::WindowSample& w : engine->window_history().samples()) {
    if (w.time <= t_a || w.time > t_b + shape.window_seconds) continue;
    pending_peak = std::max<std::uint64_t>(pending_peak, w.topology.pending);
    for (const dsps::TaskWindowStats& t : w.tasks) {
      queue_peak = std::max(queue_peak, t.queue_len);
      if (t.task >= c_lo && t.task < c_hi) {
        wait_sum += t.avg_queue_wait * static_cast<double>(t.executed);
        wait_n += static_cast<double>(t.executed);
      }
    }
  }
  double c_max = 0.0;
  double c_sum = 0.0;
  for (std::size_t t = c_lo; t < c_hi; ++t) {
    const double d = static_cast<double>(exec_b[t] - exec_a[t]);
    c_max = std::max(c_max, d);
    c_sum += d;
  }
  const double tuples = static_cast<double>(sum_range(exec_b, 0, exec_b.size()) -
                                            sum_range(exec_a, 0, exec_a.size()));
  const double ktuples = std::max(1.0, tuples) / 1e3;
  const double wakeups = static_cast<double>(
      (sched_b.wakeups_productive - sched_a.wakeups_productive) +
      (sched_b.wakeups_spurious - sched_a.wakeups_spurious));
  const double spurious =
      static_cast<double>(sched_b.wakeups_spurious - sched_a.wakeups_spurious);

  Report& l = pass.layers;
  l.add("gen.lag_p50_ms", probe->lag.percentile(0.5) * 1e-6, "ms");
  l.add("gen.lag_max_ms", static_cast<double>(probe->lag.max()) * 1e-6, "ms");
  const double exec_us =
      exec_count == 0 ? 0.0 : static_cast<double>(exec_ns) / static_cast<double>(exec_count) * 1e-3;
  l.add("apps.counter_exec_us", exec_us, "us");
  l.add("dsps.complete_latency_ms", engine->mean_complete_latency() * 1e3, "ms");
  l.add("dsps.pending_peak", static_cast<double>(pending_peak), "count");
  l.add("runtime.queue_wait_us", wait_n > 0.0 ? wait_sum / wait_n * 1e6 : 0.0, "us");
  l.add("runtime.queue_peak", static_cast<double>(queue_peak), "count");
  l.add("runtime.bp_stall_s", engine->flow_control()->total_stall_seconds(), "s");
  const double c_mean = c_sum / static_cast<double>(c_hi - c_lo);
  l.add("runtime.route_skew", c_sum > 0.0 ? c_max / c_mean : 0.0, "ratio");
  l.add("rt.wakeups_per_ktuple", wakeups / ktuples, "1/ktuple");
  l.add("rt.spurious_wakeup_ratio", wakeups > 0.0 ? spurious / wakeups : 0.0, "ratio");
  l.add("rt.suspends_per_ktuple",
        static_cast<double>(sched_b.suspends - sched_a.suspends) / ktuples, "1/ktuple");
  l.add("rt.steals_per_ktuple", static_cast<double>(sched_b.steals - sched_a.steals) / ktuples,
        "1/ktuple");
  l.add("rt.ready_peak", static_cast<double>(sched_b.ready_peak), "count");
  l.add("cpu_us_per_tuple", (cpu_b - cpu_a) / std::max(1.0, tuples) * 1e6, "us");
  return pass;
}

}  // namespace

RunResult run_live(const RunOptions& o) {
  const Shape shape = shape_of(o.workload);
  RunResult res;

  std::vector<double> setup;
  Pass plain = run_pass(shape, o, nullptr, &setup);
  for (const std::string& v : check_live(plain.row)) res.violations.push_back(v);
  if (shape.from_schedule) {
    for (const std::string& v : check_schedule(plain.row.roots, shape.rate, plain.run_seconds)) {
      res.violations.push_back(v);
    }
  }
  res.attempted = plain.row.roots;
  res.failed = plain.row.failed + plain.row.lost + plain.row.shed;

  Report& e = res.end_to_end;
  e.add("throughput_tps", plain.median_throughput(), "1/s");
  e.add("latency_p50_ms", plain.latency_ms(0.50), "ms");
  e.add("latency_p95_ms", plain.latency_ms(0.95), "ms");
  e.add("setup_s", fastest_quarter_mean(setup), "s");
  e.add("peak_rss_mb", peak_rss_mb(), "MB");

  Report& d = res.diagnostics;
  d.add("latency_samples", static_cast<double>(plain.all_latency.count()), "count");
  d.add("offered_tps", shape.rate, "1/s");
  d.add("loop_threads", loop_threads(shape, o.nproc), "count");
  std::vector<double> seg_p95;
  for (const LogHistogram& h : plain.latency) seg_p95.push_back(h.percentile(0.95) * 1e-6);
  d.add("segment_tps_min", *std::min_element(plain.throughput.begin(), plain.throughput.end()),
        "1/s");
  d.add("segment_tps_max", *std::max_element(plain.throughput.begin(), plain.throughput.end()),
        "1/s");
  d.add("segment_p95_min_ms", *std::min_element(seg_p95.begin(), seg_p95.end()), "ms");
  d.add("segment_p95_max_ms", *std::max_element(seg_p95.begin(), seg_p95.end()), "ms");

  if (!o.trace) return res;

  // Traced pass: same shape, spans on. Tail numbers come from the
  // untraced pass, since spans perturb the tail they would explain.
  SpanLog spans(kSpanCapacity);
  Pass traced = run_pass(shape, o, &spans, nullptr);
  for (const std::string& v : check_live(traced.row)) res.violations.push_back("traced: " + v);

  Report& l = res.per_layer;
  for (const Metric& m : traced.layers.metrics()) l.add(m.name, m.value, m.unit);
  l.add("tail.p99_ms", plain.all_latency.percentile(0.99) * 1e-6, "ms");
  l.add("tail.p999_ms", plain.all_latency.percentile(0.999) * 1e-6, "ms");
  const double slow = static_cast<double>(plain.slow);
  l.add("tail.boundary_share",
        slow == 0.0 ? 0.0 : static_cast<double>(plain.slow_at_boundary) / slow, "ratio");
  l.add("trace.overhead_p50_ms", traced.latency_ms(0.5) - plain.latency_ms(0.5), "ms");
  l.add("trace.overhead_tps", traced.median_throughput() - plain.median_throughput(), "1/s");
  add_span_summary(spans, res.diagnostics);
  if (!o.trace_out.empty() && !spans.write_jsonl(o.trace_out, o.context_json)) {
    res.violations.push_back("cannot write span file " + o.trace_out);
  }
  return res;
}

}  // namespace perfbench

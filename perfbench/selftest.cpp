// Harness self-tests: the bounded histogram against an exact sort, the
// fastest-quarter reduction of repeated timings, and
// every correctness gate against doctored totals (a gate that no row can
// violate is a bug).
#include <cmath>
#include <cstdio>
#include <random>

#include "workloads.hpp"

namespace perfbench {
namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

void histogram_matches_exact_sort() {
  std::mt19937_64 rng(7);
  std::lognormal_distribution<double> lognormal(std::log(50e3), 1.2);  // ~50 us, heavy tail
  std::uniform_int_distribution<std::uint64_t> small(0, 300);
  for (int dataset = 0; dataset < 2; ++dataset) {
    LogHistogram h;
    std::vector<double> exact;
    for (int i = 0; i < 200000; ++i) {
      const std::uint64_t v =
          dataset == 0 ? static_cast<std::uint64_t>(lognormal(rng)) : small(rng);
      h.record(v);
      exact.push_back(static_cast<double>(v));
    }
    for (double q : {0.01, 0.5, 0.95, 0.99, 0.999, 1.0}) {
      const double want = exact_percentile(exact, q);
      const double got = h.percentile(q);
      // Bucket midpoints are within 1/256 of the sample; allow 1%.
      const bool ok = std::abs(got - want) <= 0.01 * want + 0.5;
      expect(ok, "histogram dataset " + std::to_string(dataset) + " q=" + json_number(q) +
                     ": " + json_number(got) + " vs exact " + json_number(want));
    }
  }
  LogHistogram empty;
  expect(empty.percentile(0.5) == 0.0 && empty.count() == 0, "empty histogram reads 0");
}

void fastest_quarter_picks_the_smallest() {
  const std::vector<double> times{9.0, 2.0, 7.0, 1.0, 8.0, 3.0, 6.0, 5.0};
  const std::vector<std::size_t> keep = fastest_quarter(times);
  expect(keep == std::vector<std::size_t>{3, 1}, "fastest quarter of 8 is the 2 smallest");
  expect(fastest_quarter_mean(times) == 1.5, "fastest-quarter mean of 8 is their mean");
  expect(fastest_quarter_mean({4.0, 3.0}) == 3.0, "fastest quarter keeps at least one");
  expect(fastest_quarter_mean({}) == 0.0, "fastest quarter of nothing reads 0");
}

LiveTotalsRow clean_live() {
  LiveTotalsRow r;
  r.roots = 1000;
  r.acked = 990;
  r.counter_executed = 990;
  r.max_spout_pending = 50;
  return r;
}

void live_gate_fails_on_doctored_rows() {
  expect(check_live(clean_live()).empty(), "live gate passes a clean row");
  struct Doctor {
    const char* what;
    void (*apply)(LiveTotalsRow&);
  };
  const Doctor doctors[] = {
      {"acked + failed > roots", [](LiveTotalsRow& r) { r.acked = r.counter_executed = 1001; }},
      {"in flight > max_spout_pending",
       [](LiveTotalsRow& r) { r.acked = r.counter_executed = 900; }},
      {"failed roots", [](LiveTotalsRow& r) { r.failed = 1; }},
      {"lost tuples", [](LiveTotalsRow& r) { r.lost = 1; }},
      {"shed tuples", [](LiveTotalsRow& r) { r.shed = 1; }},
      {"counter executions != acked", [](LiveTotalsRow& r) { r.counter_executed = 989; }},
  };
  for (const Doctor& d : doctors) {
    LiveTotalsRow r = clean_live();
    d.apply(r);
    expect(!check_live(r).empty(), std::string("live gate fails on: ") + d.what);
  }
  expect(check_schedule(50000, 5000.0, 10.0).empty(), "schedule gate passes an on-time row");
  expect(!check_schedule(49400, 5000.0, 10.0).empty(), "schedule gate fails 1.2% short");
  expect(!check_schedule(50600, 5000.0, 10.0).empty(), "schedule gate fails 1.2% over");
}

void sim_gate_fails_on_doctored_rows() {
  SimTotalsRow r;
  r.roots = 1000;
  r.acked = 980;
  r.failed = 10;
  r.executed = 5000;
  r.max_spout_pending = 100;
  expect(check_sim({r, r}).empty(), "sim gate passes two identical evaluations");
  expect(!check_sim({}).empty(), "sim gate fails with no evaluation");
  SimTotalsRow drift = r;
  drift.executed = 5001;
  expect(!check_sim({r, drift}).empty(), "sim gate fails when executed tuples differ");
  SimTotalsRow over = r;
  over.acked = 995;
  expect(!check_sim({over}).empty(), "sim gate fails on acked + failed > roots");
  SimTotalsRow shed = r;
  shed.shed = 3;
  expect(!check_sim({shed}).empty(), "sim gate fails on shed tuples");
  SimTotalsRow inflight = r;
  inflight.acked = 500;
  expect(!check_sim({inflight}).empty(), "sim gate fails on in flight > max_spout_pending");
}

void span_self_time() {
  SpanLog log(4);
  const std::uint32_t parent = log.begin("p", SpanLog::kNoParent, 0, 0);
  const std::uint32_t child = log.begin("c", parent, 0, 0);
  log.end(child);
  log.end(parent);
  expect(log.begin("x", SpanLog::kNoParent, 0, 0) != SpanLog::kFull, "span log takes a 3rd span");
  log.begin("y", SpanLog::kNoParent, 0, 0);
  expect(log.begin("z", SpanLog::kNoParent, 0, 0) == SpanLog::kFull && log.dropped() == 1,
         "span log drops past its capacity");
  bool ok = false;
  for (const SpanLog::Summary& s : log.summarize()) {
    if (s.name == "p") ok = s.self_ms <= s.total_ms && s.count == 1;
  }
  expect(ok, "parent self time excludes its child");
}

}  // namespace

int run_self_test() {
  g_failures = 0;
  histogram_matches_exact_sort();
  fastest_quarter_picks_the_smallest();
  live_gate_fails_on_doctored_rows();
  sim_gate_fails_on_doctored_rows();
  span_self_time();
  std::printf("%d self-test failure(s)\n", g_failures);
  return g_failures;
}

}  // namespace perfbench

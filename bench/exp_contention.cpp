// C1 — scheduler contention sweep: throughput of the bounded
// (kBlockUpstream) data path as a function of executor count on the async
// backend (event loop: executors are tasks on a fixed pool of loop
// threads, backpressure suspends the emitting task).
//
// The topology is the same near-zero-work src -> relay -> sink shuffle
// spine as exp_scale, sized so the executor count matches the sweep
// point (relay and sink each get half the executors, one per worker).
// The spout heavily over-drives the pipeline, so the bounded queues are
// saturated and every emission contends on the credit gate.
//
// Metrics per configuration:
//   tuples/s       — tuples executed per wall second (all stages)
//   wakeups/tuple  — eventcount wakeups per executed tuple; stays flat as
//                    executors grow, because a logical worker costs no
//                    thread.
//
// Raw tuples/s is machine-dependent; the contract is a same-run ratio.
// The headline (and the CI gate in check_contention_regression.py) is the
// 64 -> 256 executor throughput retention (no cliff).
//
// Usage: exp_contention [--quick] [--json=PATH]
//   --quick     CI smoke: shorter runs, same executor axis
//   --json      also write machine-readable rows (bench/baselines/
//               BENCH_contention.json holds curated numbers)
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "dsps/topology.hpp"
#include "rt/async_engine.hpp"

namespace {

using namespace repro;

/// Deterministic constant-rate source: one tuple every 1/rate seconds.
class RateSpout : public dsps::Spout {
 public:
  explicit RateSpout(double rate) : interval_(1.0 / rate) {}
  double next_delay(sim::SimTime) override { return interval_; }
  std::optional<dsps::Values> next(sim::SimTime) override {
    return dsps::Values{static_cast<std::int64_t>(seq_++)};
  }

 private:
  double interval_;
  std::int64_t seq_ = 0;
};

class RelayBolt : public dsps::Bolt {
 public:
  void execute(const dsps::Tuple&, dsps::OutputCollector& out) override {
    out.emit(dsps::Values{});
  }
};

class SinkBolt : public dsps::Bolt {
 public:
  void execute(const dsps::Tuple&, dsps::OutputCollector&) override {}
};

/// One spout + (executors-1)/2 relays + the rest sinks: with workers ==
/// executors every worker hosts exactly one executor, so the sweep runs
/// `executors` tasks on the fixed loop-thread pool.
dsps::Topology make_topology(std::size_t executors, double rate) {
  std::size_t relays = executors > 2 ? (executors - 1) / 2 : 1;
  std::size_t sinks = executors > relays + 1 ? executors - relays - 1 : 1;
  dsps::TopologyBuilder b("contention");
  b.set_spout("src", [rate] { return std::make_unique<RateSpout>(rate); });
  b.set_bolt("relay", [] { return std::make_unique<RelayBolt>(); }, relays)
      .shuffle_grouping("src");
  b.set_bolt("sink", [] { return std::make_unique<SinkBolt>(); }, sinks)
      .shuffle_grouping("relay");
  return b.build();
}

struct Row {
  std::size_t executors = 0;
  std::uint64_t tuples = 0;
  double wall_s = 0.0;
  double tuples_per_s = 0.0;
  std::uint64_t wakeups = 0;
  double wakeups_per_tuple = 0.0;
  std::uint64_t suspends = 0;
  double stall_s = 0.0;
};

Row run_sweep_point(std::size_t executors, double rate, int wall_ms) {
  rt::AsyncConfig cfg;
  cfg.workers = executors;
  cfg.window_seconds = 0.25;
  // Saturated bounded path: tight queues, lossless backpressure. The
  // spout over-drives by construction (rate far above what the host
  // drains), so every run spends most of its time at the credit gate.
  cfg.flow = {64, runtime::OverflowPolicy::kBlockUpstream};
  cfg.max_spout_pending = 10000;
  rt::AsyncEngine engine(make_topology(executors, rate), cfg);

  auto begin = std::chrono::steady_clock::now();
  engine.run_for(std::chrono::milliseconds(wall_ms));
  double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();

  rt::RtTotals t = engine.totals();
  Row row;
  row.executors = executors;
  row.tuples = t.executed;
  row.wall_s = wall;
  row.tuples_per_s = wall > 0.0 ? static_cast<double>(t.executed) / wall : 0.0;
  row.wakeups = t.wakeups_productive + t.wakeups_spurious;
  row.wakeups_per_tuple =
      t.executed > 0 ? static_cast<double>(row.wakeups) / static_cast<double>(t.executed) : 0.0;
  row.suspends = t.suspends;
  row.stall_s = engine.flow_control()->total_stall_seconds();
  return row;
}

const Row* find_row(const std::vector<Row>& rows, std::size_t executors) {
  for (const Row& r : rows) {
    if (r.executors == executors) return &r;
  }
  return nullptr;
}

/// Throughput retention from 64 to 256 executors (1.0 = flat).
double retention_64_to_256(const std::vector<Row>& rows) {
  const Row* at64 = find_row(rows, 64);
  const Row* at256 = find_row(rows, 256);
  if (at64 == nullptr || at256 == nullptr || at64->tuples_per_s <= 0.0) return 0.0;
  return at256->tuples_per_s / at64->tuples_per_s;
}

void write_json(const char* path, const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "exp_contention: cannot write %s\n", path);
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"description\": \"exp_contention baseline: bounded kBlockUpstream "
               "src->relay->sink spine at 8/64/256 executors on the async (event-loop) "
               "backend. Raw tuples/s is machine-dependent; the contract is the "
               "64->256 retention (gate: no cliff).\",\n"
               "  \"headline\": {\n");
  std::fprintf(f, "    \"async_retention_64_to_256\": %.2f\n  },\n  \"rows\": [\n",
               retention_64_to_256(rows));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"backend\": \"async\", \"executors\": %zu, \"tuples\": %llu, "
                 "\"tuples_per_s\": %.0f, \"wakeups\": %llu, \"wakeups_per_tuple\": %.2f, "
                 "\"suspends\": %llu, \"stall_s\": %.2f}%s\n",
                 r.executors, static_cast<unsigned long long>(r.tuples),
                 r.tuples_per_s, static_cast<unsigned long long>(r.wakeups),
                 r.wakeups_per_tuple, static_cast<unsigned long long>(r.suspends), r.stall_s,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  common::Flags flags(argc, argv);
  const bool quick = flags.get_bool("quick");
  const std::string json_path = flags.get("json");
  for (const std::string& bad : flags.unknown({"quick", "json"})) {
    std::fprintf(stderr, "exp_contention: unknown flag --%s\n", bad.c_str());
    return 2;
  }

  bench::banner("C1", "scheduler contention sweep (executors, async backend, bounded block)");

  const std::vector<std::size_t> executor_axis = {8, 64, 256};
  const double rate = 500e3;  // over-drive: far above host drain capacity
  const int wall_ms = quick ? 400 : 1500;

  std::vector<Row> rows;
  for (std::size_t executors : executor_axis) {
    rows.push_back(run_sweep_point(executors, rate, wall_ms));
  }

  common::Table table(
      {"executors", "tuples", "tuples/s", "wakeups", "wakeups/tuple", "suspends", "stall-s"});
  for (const Row& r : rows) {
    table.add_row({std::to_string(r.executors), std::to_string(r.tuples),
                   common::format_double(r.tuples_per_s, 0), std::to_string(r.wakeups),
                   common::format_double(r.wakeups_per_tuple, 2), std::to_string(r.suspends),
                   common::format_double(r.stall_s, 2)});
  }
  table.print("C1: bounded data-path throughput vs executor count");

  const double retention = retention_64_to_256(rows);
  if (retention > 0.0) {
    std::printf("throughput retention 64 -> 256 executors: %.0f%%\n", retention * 100.0);
  }

  if (!json_path.empty()) write_json(json_path.c_str(), rows);
  return 0;
}

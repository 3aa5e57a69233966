// S1 — columnar-batching scale sweep: throughput of the shared
// emit -> route -> deliver data path as a function of batch size, across
// cluster shapes (machines/workers) and spout rates, on both engines (the
// simulator and the async wall-clock runtime).
//
// The topology is a pure data-path stress: src -> relay -> sink with
// shuffle grouping and near-zero logical work, so the measured cost is
// the per-tuple spine itself (routing decision, credit, network event,
// queue handoff, acker XOR). Batch size 1 is the historical per-tuple
// path; the sweep reports how the SoA TupleBatch amortizes it.
//
// Metrics per configuration:
//   tuples/s        — tuples executed at the sink stage per wall second
//   sim-s / wall-s  — simulated seconds advanced per wall second (sim
//                     engine only; the discrete-event analogue of speedup)
//
// Usage: exp_scale [--quick] [--json=PATH] [--engines=sim,async] [--batches=1,64,...]
//   --quick    CI smoke: smallest sweep, short runs
//   --json     also write machine-readable rows (bench/baselines/
//              BENCH_scale.json holds curated full-sweep numbers)
//   --engines  restrict to one engine (profiling runs)
//   --batches  override the batch-size axis (comma list)
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "dsps/engine.hpp"
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

/// Forwards one tuple downstream per input at negligible simulated cost.
/// The forwarded payload is empty on purpose: the sweep measures the
/// spine (routing, credit, queue handoff, acker), and copying a payload
/// per hop would add a constant malloc/copy to every batch size, diluting
/// the amortization the sweep exists to show.
class RelayBolt : public dsps::Bolt {
 public:
  void execute(const dsps::Tuple&, dsps::OutputCollector& out) override {
    out.emit(dsps::Values{});
  }
  double tuple_cost(const dsps::Tuple&) const override { return 1e-6; }
};

class SinkBolt : public dsps::Bolt {
 public:
  void execute(const dsps::Tuple&, dsps::OutputCollector&) override {}
  double tuple_cost(const dsps::Tuple&) const override { return 1e-6; }
};

dsps::Topology make_topology(std::size_t relay_tasks, double rate) {
  dsps::TopologyBuilder b("scale");
  b.set_spout("src", [rate] { return std::make_unique<RateSpout>(rate); });
  b.set_bolt("relay", [] { return std::make_unique<RelayBolt>(); }, relay_tasks)
      .shuffle_grouping("src");
  b.set_bolt("sink", [] { return std::make_unique<SinkBolt>(); }, relay_tasks)
      .shuffle_grouping("relay");
  return b.build();
}

struct Row {
  std::string engine;
  std::size_t machines = 0;  ///< sim: machines; async: 0
  std::size_t workers = 0;
  double rate = 0.0;
  std::size_t batch = 0;
  std::uint64_t tuples = 0;
  double wall_s = 0.0;
  double tuples_per_s = 0.0;
  double sim_per_wall = 0.0;  ///< sim engine only
};

Row run_sim(std::size_t machines, std::size_t workers_per_machine, double rate,
            std::size_t batch, double sim_seconds) {
  dsps::ClusterConfig cfg;
  cfg.machines = machines;
  cfg.workers_per_machine = workers_per_machine;
  cfg.window_seconds = 1.0;
  cfg.max_spout_pending = 50000;
  cfg.batch_size = batch;
  // Throughput sweep: allow fragments a generous merge window (the
  // default linger is tuned for latency; per-task arrival rates here are
  // rate / fan-out, so filling a batch can take several milliseconds).
  cfg.batch_linger = 10e-3;
  dsps::Engine engine(make_topology(2 * machines, rate), cfg);

  auto begin = std::chrono::steady_clock::now();
  engine.run_for(sim_seconds);
  double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();

  Row row;
  row.engine = "sim";
  row.machines = machines;
  row.workers = machines * workers_per_machine;
  row.rate = rate;
  row.batch = batch;
  row.tuples = engine.totals().tuples_executed;
  row.wall_s = wall;
  row.tuples_per_s = wall > 0.0 ? static_cast<double>(row.tuples) / wall : 0.0;
  row.sim_per_wall = wall > 0.0 ? sim_seconds / wall : 0.0;
  return row;
}

Row run_async(std::size_t workers, double rate, std::size_t batch, int wall_ms) {
  rt::AsyncConfig cfg;
  cfg.workers = workers;
  cfg.window_seconds = 0.1;
  cfg.max_spout_pending = 50000;
  cfg.batch_size = batch;
  rt::AsyncEngine engine(make_topology(workers, rate), cfg);

  auto begin = std::chrono::steady_clock::now();
  engine.run_for(std::chrono::milliseconds(wall_ms));
  double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();

  Row row;
  row.engine = "async";
  row.workers = workers;
  row.rate = rate;
  row.batch = batch;
  row.tuples = engine.totals().executed;
  row.wall_s = wall;
  row.tuples_per_s = wall > 0.0 ? static_cast<double>(row.tuples) / wall : 0.0;
  return row;
}

/// Largest-batch-vs-1 speedup for one engine at the base row's rate and
/// worker count (the base is the batch-1 row with the highest rate).
double headline_speedup(const std::vector<Row>& rows, const std::string& eng,
                        std::size_t largest_batch) {
  const Row* base = nullptr;
  const Row* best = nullptr;
  for (const Row& r : rows) {
    if (r.engine != eng) continue;
    if (r.batch == 1 && (base == nullptr || r.rate > base->rate)) base = &r;
  }
  for (const Row& r : rows) {
    if (r.engine != eng || base == nullptr) continue;
    if (r.batch == largest_batch && r.rate == base->rate && r.workers == base->workers) best = &r;
  }
  if (base == nullptr || best == nullptr || base->tuples_per_s <= 0.0) return 0.0;
  return best->tuples_per_s / base->tuples_per_s;
}

void write_json(const char* path, const std::vector<Row>& rows, std::size_t largest_batch) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "exp_scale: cannot write %s\n", path);
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"description\": \"exp_scale baseline for the columnar batched data path: "
               "tuples/sec of the src->relay->sink shuffle spine as a function of batch size, "
               "per engine. The headline is the largest-batch-vs-1 speedup at the heaviest "
               "rate. A run cannot exceed the offered load (2 x rate tuples/s), so a ratio "
               "whose large-batch rows reach it is capped by the rate axis, not the engine. "
               "Wall-clock columns are indicative, ratios are the contract.\",\n"
               "  \"host\": {\"hardware_concurrency\": %u, \"build_type\": \"%s\", "
               "\"compiler\": \"%s\"},\n"
               "  \"headline\": {\n",
               std::thread::hardware_concurrency(), REPRO_BUILD_TYPE, __VERSION__);
  for (const char* eng : {"sim", "async"}) {
    const double s = headline_speedup(rows, eng, largest_batch);
    if (s > 0.0) {
      std::fprintf(f, "    \"%s_speedup_batch_%zu_vs_1\": %.1f,\n", eng, largest_batch, s);
    }
  }
  std::fprintf(f, "    \"largest_batch\": %zu\n  },\n  \"rows\": [\n", largest_batch);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"engine\": \"%s\", \"machines\": %zu, \"workers\": %zu, "
                 "\"rate\": %.0f, \"batch\": %zu, \"tuples\": %llu, "
                 "\"tuples_per_s\": %.0f, \"sim_per_wall\": %.2f}%s\n",
                 r.engine.c_str(), r.machines, r.workers, r.rate, r.batch,
                 static_cast<unsigned long long>(r.tuples), r.tuples_per_s, r.sim_per_wall,
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
  const std::string engines = flags.get("engines", "sim,async");
  const std::string batches_arg = flags.get("batches");
  for (const std::string& bad : flags.unknown({"quick", "json", "engines", "batches"})) {
    std::fprintf(stderr, "exp_scale: unknown flag --%s\n", bad.c_str());
    return 2;
  }
  const bool want_sim = engines.find("sim") != std::string::npos;
  const bool want_async = engines.find("async") != std::string::npos;

  bench::banner("S1", "columnar batching scale sweep (workers x rate x batch, both engines)");

  std::vector<std::size_t> batches =
      quick ? std::vector<std::size_t>{1, 64} : std::vector<std::size_t>{1, 8, 64, 256};
  if (!batches_arg.empty()) {
    batches.clear();
    std::size_t pos = 0;
    while (pos < batches_arg.size()) {
      std::size_t comma = batches_arg.find(',', pos);
      if (comma == std::string::npos) comma = batches_arg.size();
      batches.push_back(static_cast<std::size_t>(std::stoul(batches_arg.substr(pos, comma - pos))));
      pos = comma + 1;
    }
  }
  const std::vector<std::size_t> sim_machines =
      quick ? std::vector<std::size_t>{2} : std::vector<std::size_t>{1, 4};
  const std::vector<double> rates =
      quick ? std::vector<double>{100e3} : std::vector<double>{50e3, 200e3};
  const double sim_seconds = quick ? 1.0 : 3.0;
  const std::vector<std::size_t> async_workers =
      quick ? std::vector<std::size_t>{4} : std::vector<std::size_t>{2, 8};
  const int async_wall_ms = quick ? 300 : 800;

  std::vector<Row> rows;
  if (want_sim) {
    for (std::size_t machines : sim_machines) {
      for (double rate : rates) {
        for (std::size_t batch : batches) {
          rows.push_back(run_sim(machines, 2, rate, batch, sim_seconds));
        }
      }
    }
  }
  if (want_async) {
    for (std::size_t workers : async_workers) {
      for (double rate : rates) {
        for (std::size_t batch : batches) {
          rows.push_back(run_async(workers, rate, batch, async_wall_ms));
        }
      }
    }
  }

  common::Table table({"engine", "machines", "workers", "rate/s", "batch", "tuples",
                       "tuples/s", "sim-s/wall-s"});
  for (const Row& r : rows) {
    table.add_row({r.engine, r.machines == 0 ? "-" : std::to_string(r.machines),
                   std::to_string(r.workers), common::format_double(r.rate, 0),
                   std::to_string(r.batch), std::to_string(r.tuples),
                   common::format_double(r.tuples_per_s, 0),
                   r.engine == "sim" ? common::format_double(r.sim_per_wall, 2) : "-"});
  }
  table.print("S1: data-path throughput sweep");

  // Headline: hot-path amortization at the largest batch vs batch 1, per
  // engine, at the heaviest configuration of the sweep.
  for (const char* eng : {"sim", "async"}) {
    const Row* base = nullptr;
    const Row* best = nullptr;
    for (const Row& r : rows) {
      if (r.engine != eng) continue;
      if (r.batch == 1 && (base == nullptr || r.rate > base->rate)) base = &r;
      if (base != nullptr && r.batch == batches.back() && r.rate == base->rate &&
          r.workers == base->workers) {
        best = &r;
      }
    }
    if (base != nullptr && best != nullptr && base->tuples_per_s > 0.0) {
      std::printf("%s speedup at batch %zu vs 1 (rate %.0f/s, %zu workers): %.1fx\n",
                  eng, best->batch, base->rate, base->workers,
                  best->tuples_per_s / base->tuples_per_s);
    }
  }

  if (!json_path.empty()) write_json(json_path.c_str(), rows, batches.back());
  return 0;
}

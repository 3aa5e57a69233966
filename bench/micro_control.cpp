// M1 micro-benchmarks for the streaming control plane: per-round
// controller cost as a function of run length. The headline claim is that
// a control round over the window-history spine is O(workers x window) —
// flat whether the run has produced 1k, 10k, or 100k windows — because
// the predictor streams each window exactly once instead of re-reading
// the trace. BM_FullTraceRefitDataset shows the linear cost a round that
// re-read the whole trace would pay.
#include <benchmark/benchmark.h>

#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "control/controller.hpp"
#include "control/dataset.hpp"
#include "control/predictor.hpp"
#include "dsps/grouping.hpp"
#include "dsps/metrics.hpp"
#include "nn/trainer.hpp"
#include "runtime/control_surface.hpp"
#include "runtime/window_history.hpp"

namespace {

using namespace repro;

constexpr std::size_t kWorkers = 8;
constexpr std::size_t kMachines = 2;
constexpr std::size_t kTasks = 8;  // one downstream task per worker

/// Deterministic synthetic window: per-worker processing times wiggle a
/// few percent around 1ms so predictors and the detector have a live
/// (but healthy) signal to chew on.
dsps::WindowSample synth_sample(std::size_t index) {
  dsps::WindowSample s;
  s.time = static_cast<double>(index + 1);
  s.window = 1.0;
  s.workers.resize(kWorkers);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    auto& ws = s.workers[w];
    ws.worker = w;
    ws.machine = w % kMachines;
    ws.executors = 1;
    ws.executed = 900 + (index * 13 + w * 7) % 200;
    ws.received = ws.executed;
    ws.avg_proc_time = 1e-3 * (1.0 + 0.05 * static_cast<double>((index * 7 + w * 3) % 13) / 13.0);
    ws.avg_queue_wait = 0.2e-3;
    ws.queue_len = (index + w) % 5;
    ws.cpu_share = 0.4 + 0.01 * static_cast<double>(w);
  }
  s.machines.resize(kMachines);
  for (std::size_t m = 0; m < kMachines; ++m) {
    s.machines[m].machine = m;
    s.machines[m].cpu_util = 0.5 + 0.02 * static_cast<double>((index + m) % 10);
    s.machines[m].load = 1.0;
  }
  s.topology.throughput = 7000.0;
  s.topology.avg_complete_latency = 5e-3;
  return s;
}

/// Minimal ControlSurface over a prebuilt WindowHistory: one dynamic
/// src -> relay edge, kTasks downstream tasks mapped 1:1 onto kWorkers.
/// Just enough surface for PredictiveController::attach + control_round.
class BenchSurface : public runtime::ControlSurface {
 public:
  explicit BenchSurface(std::size_t capacity)
      : history_(capacity), ratio_(std::make_shared<dsps::DynamicRatio>(kTasks)) {}

  std::string backend_name() const override { return "bench"; }
  double now_seconds() const override { return history_.empty() ? 0.0 : history_.back().time; }
  const runtime::WindowHistory& window_history() const override { return history_; }
  std::size_t worker_count() const override { return kWorkers; }
  std::pair<std::size_t, std::size_t> tasks_of(const std::string& component) const override {
    if (component != "relay") throw std::invalid_argument("unknown component: " + component);
    return {1, 1 + kTasks};
  }
  std::size_t worker_of_task(std::size_t global_task) const override {
    return (global_task - 1) % kWorkers;
  }
  std::vector<std::size_t> workers_of(const std::string&) const override {
    std::vector<std::size_t> all(kWorkers);
    for (std::size_t w = 0; w < kWorkers; ++w) all[w] = w;
    return all;
  }
  std::size_t queue_length_of_task(std::size_t) const override { return 0; }
  std::shared_ptr<dsps::DynamicRatio> dynamic_ratio(const std::string& from,
                                                    const std::string& to) const override {
    if (from != "src" || to != "relay") {
      throw std::invalid_argument("no dynamic connection " + from + " -> " + to);
    }
    return ratio_;
  }
  std::vector<runtime::DynamicEdge> dynamic_edges() const override {
    return {{"src", "relay"}};
  }
  void set_control_hook(double, ControlHook) override {}  // bench drives rounds manually

  void push(dsps::WindowSample sample) { history_.push(std::move(sample)); }

 private:
  runtime::WindowHistory history_;
  std::shared_ptr<dsps::DynamicRatio> ratio_;
};

/// Per-round streaming controller cost after `range(0)` windows of run
/// history. Each iteration = one new window + one full control round
/// (observe, per-worker forecast, detect, plan, actuate). Must stay flat
/// from 1k to 100k: the spine is bounded and the predictor only ever
/// touches its rolling stream window.
void BM_ControlRoundStreaming(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  BenchSurface surface(4096);  // the rt-default bounded spine
  for (std::size_t i = 0; i < n; ++i) surface.push(synth_sample(i));

  std::shared_ptr<control::PerformancePredictor> predictor = control::make_predictor("hw");
  control::PredictiveController controller(control::ControllerConfig{}, predictor);
  controller.attach(surface);
  controller.control_round(surface);  // warm-up drains the catch-up backlog

  std::size_t i = n;
  for (auto _ : state) {
    surface.push(synth_sample(i++));
    controller.control_round(surface);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ControlRoundStreaming)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

/// Amortized append cost of the bounded spine itself, including the
/// periodic compaction that keeps storage at <= 2x capacity.
void BM_WindowHistoryPush(benchmark::State& state) {
  runtime::WindowHistory history(static_cast<std::size_t>(state.range(0)));
  dsps::WindowSample sample = synth_sample(0);
  std::size_t i = 0;
  for (auto _ : state) {
    sample.time = static_cast<double>(++i);
    history.push(sample);
    benchmark::DoNotOptimize(history.total());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WindowHistoryPush)->Arg(1024)->Arg(4096);

/// The contrast: rebuilding a supervised dataset over the FULL trace, as a
/// naive per-round refit would. Linear in run length — this is the cost
/// the streaming round never pays. (Capped
/// at 10k windows; the trend is already unambiguous and 100k would mostly
/// benchmark the allocator.)
void BM_FullTraceRefitDataset(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<dsps::WindowSample> history;
  history.reserve(n);
  for (std::size_t i = 0; i < n; ++i) history.push_back(synth_sample(i));

  control::DatasetConfig cfg;
  for (auto _ : state) {
    nn::SequenceDataset ds = control::make_drnn_dataset(history, 0, cfg);
    benchmark::DoNotOptimize(ds.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullTraceRefitDataset)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

}  // namespace

// Experiment F3: dynamic grouping validation — measured per-task tuple
// shares must converge to any requested split ratio within one window of
// an on-the-fly change, including a bypass (zero weight).
#include "bench_util.hpp"
#include "exp/scenario_spec.hpp"

using namespace repro;

namespace {

void print_phase(dsps::Engine& engine, std::size_t first_window, std::size_t last_window,
                 const std::vector<double>& target, const char* label) {
  auto [lo, hi] = engine.tasks_of("counter");
  std::size_t n = hi - lo;
  std::vector<std::uint64_t> received(n, 0);
  const auto& hist = engine.window_history().samples();
  for (std::size_t w = first_window; w < last_window && w < hist.size(); ++w) {
    for (std::size_t t = 0; t < n; ++t) received[t] += hist[w].tasks[lo + t].received;
  }
  std::uint64_t total = 0;
  for (std::uint64_t r : received) total += r;

  common::Table table({"counter task", "target share", "measured share", "tuples"});
  for (std::size_t t = 0; t < n; ++t) {
    double measured = total > 0 ? static_cast<double>(received[t]) / static_cast<double>(total) : 0;
    table.add_row({std::to_string(t), common::format_double(target[t], 3),
                   common::format_double(measured, 3), std::to_string(received[t])});
  }
  table.print(label);
}

}  // namespace

int main() {
  bench::banner("F3", "dynamic grouping: measured share vs requested split ratio");
  // No interference (the spec default): isolate routing behaviour. The
  // ratios change between runs, so this bench drives the engine itself.
  exp::ScenarioSpec spec;
  spec.name = "f3-grouping";
  spec.seed = 45;
  exp::ScenarioApp app = exp::build_scenario_app(spec);
  const std::shared_ptr<dsps::DynamicRatio>& ratio = app.parts.front().ratio;
  dsps::Engine engine(app.topology, spec.cluster_config());

  // Phase 1: uniform.
  engine.run_for(30.0);
  // Phase 2: skewed ratio, switched on the fly at t=30.
  ratio->set_ratios({0.4, 0.3, 0.2, 0.1});
  engine.run_for(30.0);
  // Phase 3: bypass task 2 entirely at t=60.
  ratio->set_ratios({0.35, 0.35, 0.0, 0.3});
  engine.run_for(30.0);

  print_phase(engine, 0, 30, {0.25, 0.25, 0.25, 0.25}, "phase 1 (t=0..30): uniform");
  print_phase(engine, 30, 60, {0.4, 0.3, 0.2, 0.1}, "phase 2 (t=30..60): {0.4,0.3,0.2,0.1}");
  print_phase(engine, 60, 90, {0.35, 0.35, 0.0, 0.3},
              "phase 3 (t=60..90): bypass task 2, {0.35,0.35,0,0.3}");

  // Convergence speed: share in the very first window after each switch.
  auto [lo, hi] = engine.tasks_of("counter");
  const auto& w30 = engine.window_history().samples()[30];
  std::uint64_t tot = 0;
  for (std::size_t t = lo; t < hi; ++t) tot += w30.tasks[t].received;
  std::printf("\nfirst window after switch at t=30: task shares =");
  for (std::size_t t = lo; t < hi; ++t) {
    std::printf(" %.3f", static_cast<double>(w30.tasks[t].received) / static_cast<double>(tot));
  }
  std::printf("  (target 0.400 0.300 0.200 0.100)\n");
  std::printf("expected shape: measured shares match targets; re-ratio takes effect within one window\n");
  return 0;
}

#include "exp/scenarios.hpp"

namespace repro::exp {

std::vector<dsps::WindowSample> collect_trace(const ScenarioSpec& spec) {
  return run_scenario_with(spec, nullptr).history;
}

std::vector<std::size_t> active_workers(const std::vector<dsps::WindowSample>& trace) {
  std::vector<std::uint64_t> executed;
  for (const auto& sample : trace) {
    if (executed.size() < sample.workers.size()) executed.resize(sample.workers.size(), 0);
    for (const auto& w : sample.workers) executed[w.worker] += w.executed;
  }
  std::vector<std::size_t> out;
  for (std::size_t w = 0; w < executed.size(); ++w) {
    if (executed[w] > 0) out.push_back(w);
  }
  return out;
}

}  // namespace repro::exp

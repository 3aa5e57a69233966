#pragma once
// Trace helpers shared by the accuracy experiments, the predictor
// pretraining recipe and the examples.
#include <cstddef>
#include <vector>

#include "dsps/metrics.hpp"
#include "exp/scenario_spec.hpp"

namespace repro::exp {

/// Run the spec with no controller and return its window history: the
/// profiling trace predictors train on. The engine is freed before this
/// returns.
std::vector<dsps::WindowSample> collect_trace(const ScenarioSpec& spec);

/// Workers that executed at least one tuple over the trace (i.e. host bolt
/// executors) — the entities worth predicting.
std::vector<std::size_t> active_workers(const std::vector<dsps::WindowSample>& trace);

}  // namespace repro::exp

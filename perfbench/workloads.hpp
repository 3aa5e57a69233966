#pragma once
// The benchmark's workloads. Each runs an untraced pass for the
// end-to-end metrics; with tracing on it then runs a traced pass of the
// same shape for the per-layer metrics and the tracing overhead.
#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;     ///< span file of the traced pass ("" = none)
  std::string context_json;  ///< host/build context, copied into the span file
  unsigned nproc = 1;        ///< online CPUs; live workloads size the loop pool from it
};

struct RunResult {
  Report end_to_end;
  Report per_layer;        ///< filled by traced runs only
  Report diagnostics;      ///< printed, not part of the result line
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;  ///< correctness-gate failures
};

/// "live-steady" or "live-saturate" on the async backend.
RunResult run_live(const RunOptions& options);
/// "sim-control": the t7-bakeoff course on the sim backend under drnn.
RunResult run_sim_control(const RunOptions& options);

/// Harness self-tests (histogram against an exact sort, gates against
/// doctored totals). Returns the number of failed checks.
int run_self_test();

/// The per-layer metrics every workload reports in its traced result
/// line; a workload that does not exercise a layer reports its count as 0.
const std::vector<std::string>& per_layer_names();
/// The end-to-end metrics every workload reports.
const std::vector<std::string>& end_to_end_names();

/// Metrics read from a traced pass's spans: count and self time per name.
void add_span_summary(const SpanLog& spans, Report& diagnostics);

}  // namespace perfbench

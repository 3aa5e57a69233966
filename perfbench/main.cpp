// perfbench: the repository benchmark program.
//
//   perfbench --workload <live-steady|live-saturate|sim-control> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>] [--commit <id>]
//   perfbench --self-test
//
// Prints host/build context, every metric as `name = value unit`, and as
// the last line one JSON object {correct, attempted, failed, metrics}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. A failed correctness check prints the violations to stderr,
// no result line, and exits 1.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace perfbench {

const std::vector<std::string>& end_to_end_names() {
  static const std::vector<std::string> names{"throughput_tps", "latency_p50_ms", "latency_p95_ms",
                                              "setup_s", "peak_rss_mb"};
  return names;
}

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names{
      "dsps.pending_peak",    "runtime.queue_peak",     "runtime.route_skew",
      "rt.wakeups_per_ktuple", "rt.spurious_wakeup_ratio", "rt.suspends_per_ktuple",
      "rt.steals_per_ktuple", "rt.ready_peak",          "cpu_us_per_tuple",
      "tail.boundary_share",  "trace.overhead_p50_ms",  "trace.overhead_tps"};
  return names;
}

void add_span_summary(const SpanLog& spans, Report& diagnostics) {
  for (const SpanLog::Summary& s : spans.summarize()) {
    diagnostics.add("span." + s.name + ".count", static_cast<double>(s.count), "count");
    diagnostics.add("span." + s.name + ".self_us",
                    s.count == 0 ? 0.0 : s.self_ms * 1e3 / static_cast<double>(s.count), "us");
  }
  diagnostics.add("span.dropped", static_cast<double>(spans.dropped()), "count");
}

}  // namespace perfbench

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <live-steady|live-saturate|"
               "sim-control> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--commit <id>]\n       perfbench --self-test\n",
               why);
  return 2;
}

bool optimized_build() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key == "--self-test") {
      args.emplace(key, "1");
      continue;
    }
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) return usage(("bad argument " + key).c_str());
    args[key] = argv[++i];
  }
  if (!optimized_build()) {
    std::fprintf(stderr, "perfbench: refusing to run an unoptimized build (build type %s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  if (args.count("--self-test") != 0) return run_self_test() == 0 ? 0 : 1;

  RunOptions o;
  try {
    o.workload = args.at("--workload");
    o.seed = std::stoull(args.at("--seed"));
    o.seconds = std::stod(args.at("--seconds"));
    o.trace = args.at("--trace") == "1";
    if (!o.trace && args.at("--trace") != "0") return usage("--trace takes 0 or 1");
  } catch (const std::exception&) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  if (!(o.seconds > 0.0 && o.seconds <= 60.0)) return usage("--seconds must be in (0, 60]");
  if (args.count("--trace-out") != 0) o.trace_out = args["--trace-out"];
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  o.nproc = nproc;

  const std::string commit = args.count("--commit") != 0 ? args["--commit"] : "unknown";
  o.context_json = "{\"workload\": \"" + o.workload + "\", \"seed\": " + std::to_string(o.seed) +
                   ", \"seconds\": " + json_number(o.seconds) +
                   ", \"trace\": " + (o.trace ? "1" : "0") +
                   ", \"nproc\": " + std::to_string(nproc) + ", \"compiler\": \"" +
                   compiler() + "\", \"build_type\": \"" + PERFBENCH_BUILD_TYPE +
                   "\", \"commit\": \"" + commit + "\"}";
  std::printf("context %s\n", o.context_json.c_str());
  std::fflush(stdout);

  RunResult r;
  try {
    if (o.workload == "live-steady" || o.workload == "live-saturate") {
      r = run_live(o);
    } else if (o.workload == "sim-control") {
      r = run_sim_control(o);
    } else {
      return usage(("unknown workload " + o.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", o.workload.c_str(), e.what());
    return 1;
  }

  if (!r.violations.empty()) {
    for (const std::string& v : r.violations) {
      std::fprintf(stderr, "perfbench: correctness check failed: %s\n", v.c_str());
    }
    return 1;
  }

  const std::vector<std::string>& names = o.trace ? per_layer_names() : end_to_end_names();
  const Report& chosen = o.trace ? r.per_layer : r.end_to_end;
  for (const std::string& n : names) {
    try {
      (void)chosen.get(n);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s\n", e.what());
      return 1;
    }
  }
  r.end_to_end.print("end_to_end ");
  r.per_layer.print("per_layer ");
  r.diagnostics.print("diagnostic ");
  if (o.trace && !o.trace_out.empty()) {
    std::printf("trace spans written to %s\n", o.trace_out.c_str());
  }
  std::printf("%s\n", chosen.json_line(r.attempted, r.failed, names).c_str());
  return 0;
}

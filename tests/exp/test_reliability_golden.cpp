// Golden-file regression for the crash-reliability experiment: a small
// fixed-seed configuration is rendered into the T3-style summary table and
// byte-compared against tests/data/reliability_crash_golden.txt. The table
// deliberately contains no wall-clock columns ("ctl ms" is omitted — it is
// the one non-deterministic column in the bench output), so the compare is
// exact byte equality.
//
// Regenerate after an intentional behaviour change with
//   REPRO_UPDATE_GOLDEN=1 ./test_reliability_golden
// and commit the diff alongside the change that caused it.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common/table.hpp"
#include "exp/reliability.hpp"

namespace repro {
namespace {

std::string golden_path() {
  return std::string(REPRO_TEST_DATA_DIR) + "/reliability_crash_golden.txt";
}

/// The golden's fixed-seed course: URL Count under background hog load,
/// 30 s, no DRNN anywhere.
exp::ScenarioSpec golden_spec() {
  exp::ScenarioSpec spec;
  spec.name = "reliability-golden";
  spec.seed = 7;
  spec.duration = 30.0;
  spec.interference.hog_intensity = 2.4;
  return spec;
}

/// Crash case, stock vs nofault only: the faulted worker hangs at t=8s,
/// crashes, and rejoins at t=13s with tuple replay enabled.
std::vector<exp::ReliabilityRun> crash_runs() {
  exp::ScenarioSpec spec = golden_spec();
  spec.replay_on_failure = true;
  exp::inject_reliability_fault(spec, exp::ReliabilityFault::kCrash, 8.0, 5.0);
  return exp::evaluate_reliability(spec, {"nofault", "stock"});
}

/// A x4 slowdown ramp at t=8s. Run as stock alone it pins the classic
/// slowdown pipeline (no nofault reference: its ratios read 0); with the
/// reactive (last-observation) and oracle controllers against stock and
/// the nofault reference it pins the controlled arms.
std::vector<exp::ReliabilityRun> slowdown_runs(const std::vector<std::string>& modes) {
  exp::ScenarioSpec spec = golden_spec();
  exp::inject_reliability_fault(spec, exp::ReliabilityFault::kSlowdown, 8.0, 4.0);
  return exp::evaluate_reliability(spec, modes);
}

common::Table summary_table() {
  return common::Table(
      {"fault", "mode", "tput ratio", "latency inflation", "acked", "failed", "lost", "replays"});
}

void append_rows(common::Table& table, const char* label,
                 const std::vector<exp::ReliabilityRun>& runs) {
  for (const exp::ReliabilityRun& r : runs) {
    const dsps::EngineTotals& t = r.result.totals;
    table.add_row({label, r.mode, common::format_double(r.throughput_ratio, 3),
                   common::format_double(r.latency_inflation, 2), std::to_string(t.acked),
                   std::to_string(t.failed), std::to_string(t.tuples_lost),
                   std::to_string(t.replays)});
  }
}

/// The controlled case renders as a second table: its "reactive" rows
/// would widen the first table's mode column and move its bytes.
std::string render_golden() {
  common::Table table = summary_table();
  append_rows(table, "crash 5s outage", crash_runs());
  append_rows(table, "slowdown x4", slowdown_runs({"stock"}));
  common::Table controlled = summary_table();
  append_rows(controlled, "slowdown x4",
              slowdown_runs({"nofault", "stock", "reactive", "oracle"}));
  return table.to_string() + "\n" + controlled.to_string();
}

TEST(ReliabilityGolden, CrashSummaryMatchesGoldenFile) {
  std::string rendered = render_golden();

  if (std::getenv("REPRO_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    out << rendered;
    GTEST_SKIP() << "golden file regenerated at " << golden_path();
  }

  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path()
                         << " (run with REPRO_UPDATE_GOLDEN=1 to create it)";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), rendered)
      << "crash-reliability summary drifted from the recorded golden; if the "
         "change is intentional, regenerate with REPRO_UPDATE_GOLDEN=1";
}

/// The golden scenario is itself deterministic: two fresh evaluations
/// render byte-identical tables (guards against hidden wall-clock or
/// global-state leakage into the summary).
TEST(ReliabilityGolden, CrashSummaryIsDeterministic) {
  std::string a = render_golden();
  std::string b = render_golden();
  EXPECT_EQ(a, b);
}

/// The crash actually costs tuples in the stock run and replay wins them
/// back — keeps the golden from silently degenerating into a no-op run.
TEST(ReliabilityGolden, GoldenScenarioExercisesCrashAndReplay) {
  const dsps::EngineTotals stock = crash_runs().at(1).result.totals;
  EXPECT_EQ(stock.worker_crashes, 1u);
  EXPECT_EQ(stock.worker_restarts, 1u);
  EXPECT_GT(stock.tuples_lost, 0u);
  EXPECT_GT(stock.replays, 0u);
}

}  // namespace
}  // namespace repro

// Seeded chaos suite: 200 random crash/recovery scenarios on the simulated
// engine, each checked against the chaos invariants (tuple conservation,
// replay completeness, routing-table consistency, recovery). Every
// scenario derives from its seed alone, so a failure message names the
// seed and `test_chaos --gtest_filter=*Seeded* CHAOS_SEED=<n>` (or a
// one-line unit test with that seed) reproduces it exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "control/drl_controller.hpp"
#include "control/rate_controller.hpp"
#include "exp/chaos.hpp"
#include "rt/async_engine.hpp"

namespace repro {
namespace {

constexpr std::uint64_t kSeedBase = 1000;
constexpr std::size_t kScenarioCount = 200;

/// When CHAOS_SEED_LOG is set (the CI chaos job does), append failing
/// seeds there so the workflow can publish them as an artifact.
void log_failing_seed(std::uint64_t seed, const std::string& violation) {
  const char* path = std::getenv("CHAOS_SEED_LOG");
  if (path == nullptr) return;
  std::ofstream out(path, std::ios::app);
  out << seed << "\t" << violation << "\n";
}

std::string run_seed(std::uint64_t seed) {
  exp::ChaosSpec spec = exp::make_chaos_spec(seed);
  exp::ChaosReport report = exp::run_chaos_sim(spec);
  return exp::check_chaos_invariants(spec, report);
}

/// The 200-scenario sweep. CHAOS_SEED overrides the sweep with a single
/// seed for one-command reproduction of a CI failure.
TEST(ChaosInvariants, SeededScenariosHoldAllInvariants) {
  const char* override_seed = std::getenv("CHAOS_SEED");
  if (override_seed != nullptr) {
    std::uint64_t seed = std::strtoull(override_seed, nullptr, 10);
    std::string violation = run_seed(seed);
    if (!violation.empty()) log_failing_seed(seed, violation);
    ASSERT_TRUE(violation.empty()) << "chaos seed " << seed << ": " << violation;
    return;
  }
  std::size_t failures = 0;
  for (std::size_t i = 0; i < kScenarioCount; ++i) {
    std::uint64_t seed = kSeedBase + i;
    std::string violation = run_seed(seed);
    if (!violation.empty()) {
      ++failures;
      log_failing_seed(seed, violation);
      ADD_FAILURE() << "chaos seed " << seed << ": " << violation
                    << "\nreproduce: CHAOS_SEED=" << seed
                    << " ./test_chaos --gtest_filter='*SeededScenarios*'";
      if (failures >= 5) {
        FAIL() << "stopping after 5 failing seeds (of " << i + 1 << " run)";
      }
    }
  }
}

/// Crashes actually bite: across the sweep's first seeds, some scenario
/// must lose in-flight tuples to a crash and recover them through replay
/// (otherwise the suite would vacuously pass on an idle fault path).
TEST(ChaosInvariants, CrashesLoseAndReplayRecovers) {
  std::uint64_t total_lost = 0;
  std::uint64_t total_replays = 0;
  std::uint64_t total_crashes = 0;
  for (std::uint64_t seed = kSeedBase; seed < kSeedBase + 40; ++seed) {
    exp::ChaosSpec spec = exp::make_chaos_spec(seed);
    exp::ChaosReport r = exp::run_chaos_sim(spec);
    total_lost += r.totals.tuples_lost;
    total_replays += r.totals.replays;
    total_crashes += r.totals.worker_crashes;
  }
  EXPECT_GT(total_crashes, 0u);
  EXPECT_GT(total_lost, 0u) << "no scenario lost a tuple to a crash";
  EXPECT_GT(total_replays, 0u) << "no scenario exercised the replay path";
}

/// Same seed, two runs: the whole report must match field for field —
/// the chaos harness is part of the repo's determinism contract.
TEST(ChaosInvariants, ScenariosAreDeterministic) {
  for (std::uint64_t seed : {kSeedBase + 3, kSeedBase + 17, kSeedBase + 42, kSeedBase + 91}) {
    exp::ChaosSpec spec = exp::make_chaos_spec(seed);
    exp::ChaosReport a = exp::run_chaos_sim(spec);
    exp::ChaosReport b = exp::run_chaos_sim(spec);
    EXPECT_EQ(a.totals.roots_emitted, b.totals.roots_emitted) << "seed " << seed;
    EXPECT_EQ(a.totals.acked, b.totals.acked) << "seed " << seed;
    EXPECT_EQ(a.totals.failed, b.totals.failed) << "seed " << seed;
    EXPECT_EQ(a.totals.tuples_delivered, b.totals.tuples_delivered) << "seed " << seed;
    EXPECT_EQ(a.totals.tuples_executed, b.totals.tuples_executed) << "seed " << seed;
    EXPECT_EQ(a.totals.tuples_lost, b.totals.tuples_lost) << "seed " << seed;
    EXPECT_EQ(a.totals.replays, b.totals.replays) << "seed " << seed;
    EXPECT_EQ(a.missing_values, b.missing_values) << "seed " << seed;
    EXPECT_EQ(a.duplicate_values, b.duplicate_values) << "seed " << seed;
    ASSERT_EQ(a.executed_per_task.size(), b.executed_per_task.size()) << "seed " << seed;
    for (std::size_t t = 0; t < a.executed_per_task.size(); ++t) {
      EXPECT_EQ(a.executed_per_task[t], b.executed_per_task[t]) << "seed " << seed
                                                                << " task " << t;
    }
  }
}

/// The crash-free projection of a parity-friendly scenario (deterministic
/// groupings only) routes identically on the async event-loop backend,
/// task by task.
TEST(ChaosInvariants, AsyncCrashFreeProjectionMatchesSim) {
  std::size_t compared = 0;
  for (std::uint64_t seed = kSeedBase; seed < kSeedBase + 50 && compared < 3; ++seed) {
    exp::ChaosSpec spec = exp::make_chaos_spec(seed);
    if (!spec.parity_friendly) continue;
    ++compared;
    exp::ChaosReport sim = exp::run_chaos_sim(spec, /*include_faults=*/false);
    std::vector<std::uint64_t> async_counts = exp::run_chaos_async(spec);
    ASSERT_EQ(sim.executed_per_task.size(), async_counts.size()) << "seed " << seed;
    for (std::size_t t = 0; t < async_counts.size(); ++t) {
      EXPECT_EQ(sim.executed_per_task[t], async_counts[t])
          << "seed " << seed << " task " << t << " (sim vs async crash-free projection)";
    }
  }
  EXPECT_EQ(compared, 3u) << "expected parity-friendly seeds in the sweep prefix";
}

/// Bounded drain on the async backend (kBlockUpstream): seeded scenarios
/// re-run with tight queues must still fully drain through the
/// suspend/resume path — lossless (zero overflow drops), nothing lost,
/// every stage executing the whole finite stream exactly once.
TEST(ChaosInvariants, AsyncBoundedBlockUpstreamDrains) {
  for (std::uint64_t seed : {kSeedBase + 2, kSeedBase + 7, kSeedBase + 19}) {
    exp::ChaosSpec spec = exp::make_chaos_spec(seed);
    spec.flow.queue_capacity = 8;
    spec.flow.policy = runtime::OverflowPolicy::kBlockUpstream;
    rt::RtTotals t = exp::run_chaos_async_bounded(spec);
    std::uint64_t expected = static_cast<std::uint64_t>(spec.tuple_limit) *
                             (spec.stage_parallelism.size() + 1);
    EXPECT_EQ(t.executed, expected) << "seed " << seed << " did not fully drain";
    EXPECT_EQ(t.dropped_overflow, 0u) << "seed " << seed << ": kBlockUpstream must be lossless";
    EXPECT_EQ(t.lost, 0u) << "seed " << seed;
  }
}

/// Batched bounded drain on the async backend: whole TupleBatches park on
/// the inflight limiter and re-admit on credit release; the drain must
/// stay exact (no batch stranded, no splitting losses).
TEST(ChaosInvariants, AsyncBatchedBlockUpstreamDrains) {
  for (std::uint64_t seed : {kSeedBase + 2, kSeedBase + 19}) {
    exp::ChaosSpec spec = exp::make_chaos_spec(seed);
    spec.flow.queue_capacity = 8;
    spec.flow.policy = runtime::OverflowPolicy::kBlockUpstream;
    spec.batch_size = 4;
    rt::RtTotals t = exp::run_chaos_async_bounded(spec);
    std::uint64_t expected = static_cast<std::uint64_t>(spec.tuple_limit) *
                             (spec.stage_parallelism.size() + 1);
    EXPECT_EQ(t.executed, expected) << "seed " << seed << " did not fully drain";
    EXPECT_EQ(t.dropped_overflow, 0u) << "seed " << seed << ": kBlockUpstream must be lossless";
    EXPECT_EQ(t.lost, 0u) << "seed " << seed;
  }
}

/// Invariant 5 (bounded data path, kBlockUpstream): the same seeded
/// scenarios re-run with bounded queues and blocking backpressure must
/// still terminate and fully drain — nothing parked at an emit site, the
/// conservation equation balances (including zero overflow drops: the
/// policy is lossless) and the observed queue depth never exceeds the cap.
TEST(ChaosInvariants, BoundedBlockUpstreamDrainsAndConserves) {
  for (std::uint64_t seed = kSeedBase; seed < kSeedBase + 25; ++seed) {
    exp::ChaosSpec spec = exp::make_chaos_spec(seed);
    spec.flow.queue_capacity = 64;
    spec.flow.policy = runtime::OverflowPolicy::kBlockUpstream;
    spec.drain += 2.0;  // backpressure caps drain throughput; allow room
    exp::ChaosReport r = exp::run_chaos_sim(spec);
    std::string violation = exp::check_chaos_invariants(spec, r);
    ASSERT_TRUE(violation.empty())
        << "chaos seed " << seed << " (block, cap=64): " << violation;
  }
}

/// Tight blocking caps actually engage: across a batch of scenarios at
/// capacity 4, some emitter must have stalled on downstream credit and
/// some queue must have been observed at the cap — otherwise the
/// backpressure invariant would pass vacuously.
TEST(ChaosInvariants, BoundedBlockUpstreamBackpressureEngages) {
  double total_stall = 0.0;
  std::size_t peak = 0;
  for (std::uint64_t seed = kSeedBase; seed < kSeedBase + 15; ++seed) {
    exp::ChaosSpec spec = exp::make_chaos_spec(seed);
    spec.flow.queue_capacity = 4;
    spec.flow.policy = runtime::OverflowPolicy::kBlockUpstream;
    spec.drain += 3.0;
    exp::ChaosReport r = exp::run_chaos_sim(spec);
    std::string violation = exp::check_chaos_invariants(spec, r);
    ASSERT_TRUE(violation.empty())
        << "chaos seed " << seed << " (block, cap=4): " << violation;
    total_stall += r.stall_seconds;
    peak = std::max(peak, r.peak_queue_len);
  }
  EXPECT_GT(total_stall, 0.0) << "no emitter ever stalled on backpressure at capacity 4";
  EXPECT_EQ(peak, 4u) << "no queue was ever observed at the capacity bound";
}

/// Invariant 5 (kDropNewest): overflow shedding is accounted — the
/// conservation equation balances with tuples_dropped_overflow and the
/// replay budget covers re-offered roots. Tight caps must actually shed
/// somewhere across the batch.
TEST(ChaosInvariants, BoundedDropNewestAccountsOverflow) {
  std::uint64_t total_shed = 0;
  for (std::uint64_t seed = kSeedBase; seed < kSeedBase + 15; ++seed) {
    exp::ChaosSpec spec = exp::make_chaos_spec(seed);
    spec.flow.queue_capacity = 4;
    spec.flow.policy = runtime::OverflowPolicy::kDropNewest;
    // A timeout sweep fails shed roots in batches, and the batch replay
    // re-offers them all at once against a capacity-4 queue — only a few
    // are admitted per ack_timeout cycle, so a root may need its full
    // replay budget to resolve (ack or exhaust).
    spec.drain = (static_cast<double>(spec.max_replays) + 1.0) * spec.ack_timeout + 2.0;
    exp::ChaosReport r = exp::run_chaos_sim(spec);
    std::string violation = exp::check_chaos_invariants(spec, r);
    ASSERT_TRUE(violation.empty())
        << "chaos seed " << seed << " (drop, cap=4): " << violation;
    total_shed += r.totals.tuples_dropped_overflow;
  }
  EXPECT_GT(total_shed, 0u) << "no scenario ever shed a tuple at capacity 4";
}

/// Invariants 1 and 5 extend to the batched data path: the same seeded
/// scenarios re-run with batch_size > 1 (whole-batch parking under
/// kBlockUpstream) must still drain, conserve, and respect the cap.
TEST(ChaosInvariants, BatchedBlockUpstreamDrainsAndConserves) {
  for (std::uint64_t seed = kSeedBase; seed < kSeedBase + 15; ++seed) {
    exp::ChaosSpec spec = exp::make_chaos_spec(seed);
    spec.flow.queue_capacity = 64;
    spec.flow.policy = runtime::OverflowPolicy::kBlockUpstream;
    spec.batch_size = 8;
    spec.drain += 2.0;
    exp::ChaosReport r = exp::run_chaos_sim(spec);
    std::string violation = exp::check_chaos_invariants(spec, r);
    ASSERT_TRUE(violation.empty())
        << "chaos seed " << seed << " (block, cap=64, batch=8): " << violation;
  }
}

/// Invariant 5 at batch > cap under kDropNewest: partial admission splits
/// every overflowing batch, the shed tails are accounted per tuple in the
/// conservation equation, and tight caps actually shed across the sweep.
TEST(ChaosInvariants, BatchedDropNewestAccountsOverflow) {
  std::uint64_t total_shed = 0;
  for (std::uint64_t seed = kSeedBase; seed < kSeedBase + 10; ++seed) {
    exp::ChaosSpec spec = exp::make_chaos_spec(seed);
    spec.flow.queue_capacity = 4;
    spec.flow.policy = runtime::OverflowPolicy::kDropNewest;
    spec.batch_size = 8;  // > cap: a full batch never fits whole
    spec.drain = (static_cast<double>(spec.max_replays) + 1.0) * spec.ack_timeout + 2.0;
    exp::ChaosReport r = exp::run_chaos_sim(spec);
    std::string violation = exp::check_chaos_invariants(spec, r);
    ASSERT_TRUE(violation.empty())
        << "chaos seed " << seed << " (drop, cap=4, batch=8): " << violation;
    total_shed += r.totals.tuples_dropped_overflow;
  }
  EXPECT_GT(total_shed, 0u) << "no scenario ever shed a partial batch at capacity 4";
}

/// Determinism extends to batched runs: same seed + same batch size ->
/// identical report, bounded and unbounded alike.
TEST(ChaosInvariants, BatchedRunsAreDeterministic) {
  for (std::uint64_t seed : {kSeedBase + 3, kSeedBase + 42}) {
    for (bool bounded : {false, true}) {
      exp::ChaosSpec spec = exp::make_chaos_spec(seed);
      spec.batch_size = 8;
      if (bounded) {
        spec.flow.queue_capacity = 64;
        spec.flow.policy = runtime::OverflowPolicy::kBlockUpstream;
        spec.drain += 2.0;
      }
      exp::ChaosReport a = exp::run_chaos_sim(spec);
      exp::ChaosReport b = exp::run_chaos_sim(spec);
      EXPECT_EQ(a.totals.roots_emitted, b.totals.roots_emitted) << "seed " << seed;
      EXPECT_EQ(a.totals.acked, b.totals.acked) << "seed " << seed;
      EXPECT_EQ(a.totals.failed, b.totals.failed) << "seed " << seed;
      EXPECT_EQ(a.totals.tuples_delivered, b.totals.tuples_delivered) << "seed " << seed;
      EXPECT_EQ(a.totals.tuples_executed, b.totals.tuples_executed) << "seed " << seed;
      EXPECT_EQ(a.totals.tuples_dropped_overflow, b.totals.tuples_dropped_overflow)
          << "seed " << seed;
      EXPECT_EQ(a.peak_queue_len, b.peak_queue_len) << "seed " << seed;
      EXPECT_EQ(a.stall_seconds, b.stall_seconds) << "seed " << seed;
      ASSERT_EQ(a.executed_per_task.size(), b.executed_per_task.size()) << "seed " << seed;
      for (std::size_t t = 0; t < a.executed_per_task.size(); ++t) {
        EXPECT_EQ(a.executed_per_task[t], b.executed_per_task[t])
            << "seed " << seed << " task " << t << (bounded ? " (bounded)" : " (unbounded)");
      }
    }
  }
}

/// Mutation check: the invariant checker is not vacuous on batched runs.
/// Each hand-perturbed field of an otherwise-clean report must trip the
/// corresponding invariant (conservation or bounded-data-path).
TEST(ChaosInvariants, BatchedInvariantChecksCatchMutations) {
  exp::ChaosSpec spec = exp::make_chaos_spec(kSeedBase + 3);
  spec.flow.queue_capacity = 64;
  spec.flow.policy = runtime::OverflowPolicy::kBlockUpstream;
  spec.batch_size = 8;
  spec.drain += 2.0;
  const exp::ChaosReport clean = exp::run_chaos_sim(spec);
  ASSERT_TRUE(exp::check_chaos_invariants(spec, clean).empty());

  // Invariant 1 (conservation): a pending root, a queued residue, an
  // unaccounted root, or an unaccounted delivered tuple must all be caught.
  exp::ChaosReport m = clean;
  m.pending_end = 1;
  EXPECT_NE(exp::check_chaos_invariants(spec, m).find("conservation"), std::string::npos);
  m = clean;
  m.residual_queued = 3;
  EXPECT_NE(exp::check_chaos_invariants(spec, m).find("conservation"), std::string::npos);
  m = clean;
  m.totals.acked -= 1;
  EXPECT_NE(exp::check_chaos_invariants(spec, m).find("conservation"), std::string::npos);
  m = clean;
  m.totals.tuples_delivered += spec.batch_size;  // a whole batch vanishing
  EXPECT_NE(exp::check_chaos_invariants(spec, m).find("conservation"), std::string::npos);

  // Invariant 5 (bounded data path): a wedged parked batch, a queue
  // observed past the cap, or a lossy kBlockUpstream must all be caught.
  m = clean;
  m.parked_end = spec.batch_size;
  EXPECT_NE(exp::check_chaos_invariants(spec, m).find("bounded"), std::string::npos);
  m = clean;
  m.peak_queue_len = spec.flow.queue_capacity + 1;
  EXPECT_NE(exp::check_chaos_invariants(spec, m).find("bounded"), std::string::npos);
  m = clean;
  m.totals.tuples_dropped_overflow += spec.batch_size;
  EXPECT_FALSE(exp::check_chaos_invariants(spec, m).empty());
}

/// Determinism extends to the bounded data path: same seed + same flow
/// config -> identical report, including the backpressure observations.
TEST(ChaosInvariants, BoundedRunsAreDeterministic) {
  for (std::uint64_t seed : {kSeedBase + 3, kSeedBase + 17, kSeedBase + 42}) {
    exp::ChaosSpec spec = exp::make_chaos_spec(seed);
    spec.flow.queue_capacity = 64;
    spec.flow.policy = runtime::OverflowPolicy::kBlockUpstream;
    spec.drain += 2.0;
    exp::ChaosReport a = exp::run_chaos_sim(spec);
    exp::ChaosReport b = exp::run_chaos_sim(spec);
    EXPECT_EQ(a.totals.roots_emitted, b.totals.roots_emitted) << "seed " << seed;
    EXPECT_EQ(a.totals.acked, b.totals.acked) << "seed " << seed;
    EXPECT_EQ(a.totals.failed, b.totals.failed) << "seed " << seed;
    EXPECT_EQ(a.totals.tuples_delivered, b.totals.tuples_delivered) << "seed " << seed;
    EXPECT_EQ(a.totals.tuples_executed, b.totals.tuples_executed) << "seed " << seed;
    EXPECT_EQ(a.totals.tuples_dropped_overflow, b.totals.tuples_dropped_overflow)
        << "seed " << seed;
    EXPECT_EQ(a.peak_queue_len, b.peak_queue_len) << "seed " << seed;
    EXPECT_EQ(a.stall_seconds, b.stall_seconds) << "seed " << seed;
    EXPECT_EQ(a.missing_values, b.missing_values) << "seed " << seed;
    ASSERT_EQ(a.executed_per_task.size(), b.executed_per_task.size()) << "seed " << seed;
    for (std::size_t t = 0; t < a.executed_per_task.size(); ++t) {
      EXPECT_EQ(a.executed_per_task[t], b.executed_per_task[t])
          << "seed " << seed << " task " << t;
    }
  }
}

/// Invariant 6 prerequisites: the sweep actually exercises elastic
/// rescales — a healthy fraction of seeds script retire/re-add pairs,
/// the pairs are well-formed by construction, and the drains actually
/// migrate executors (otherwise invariant 6 would pass vacuously).
TEST(ChaosInvariants, RescaleEventsAreExercisedAcrossTheSweep) {
  std::size_t with_rescale = 0;
  std::size_t runs = 0;
  std::uint64_t total_retires = 0;
  std::uint64_t total_migrations = 0;
  for (std::uint64_t seed = kSeedBase; seed < kSeedBase + 60; ++seed) {
    exp::ChaosSpec spec = exp::make_chaos_spec(seed);
    if (!spec.has_rescale) continue;
    ++with_rescale;
    // Events come in strictly ordered retire -> re-add pairs of the same
    // worker, and the targets never overlap the crash plan's victims.
    ASSERT_EQ(spec.rescale_events.size() % 2, 0u) << "seed " << seed;
    for (std::size_t i = 0; i + 1 < spec.rescale_events.size(); i += 2) {
      EXPECT_TRUE(spec.rescale_events[i].retire) << "seed " << seed;
      EXPECT_FALSE(spec.rescale_events[i + 1].retire) << "seed " << seed;
      EXPECT_EQ(spec.rescale_events[i].worker, spec.rescale_events[i + 1].worker)
          << "seed " << seed;
      EXPECT_LT(spec.rescale_events[i].at, spec.rescale_events[i + 1].at) << "seed " << seed;
      for (const auto& fe : spec.plan.events) {
        if (fe.kind != dsps::FaultKind::kWorkerCrash) continue;
        EXPECT_NE(spec.rescale_events[i].worker, fe.target)
            << "seed " << seed << ": rescale target is also a crash victim";
      }
    }
    if (runs < 8) {
      ++runs;
      exp::ChaosReport r = exp::run_chaos_sim(spec);
      total_retires += r.totals.worker_retires;
      total_migrations += r.totals.task_migrations;
    }
  }
  EXPECT_GE(with_rescale, 15u) << "rescale events barely present in the sweep prefix";
  EXPECT_GT(total_retires, 0u);
  EXPECT_GT(total_migrations, 0u) << "no retire ever drained an executor";
}

/// Invariant 6 cross-backend: a parity-friendly scenario with scripted
/// rescales routes identically on both backends — the graceful
/// retire -> re-add sequence must not change where the finite stream's
/// tuples execute (task identity and queues travel with the migration).
TEST(ChaosInvariants, RescaledCrashFreeProjectionMatchesAsync) {
  std::size_t compared = 0;
  for (std::uint64_t seed = kSeedBase; seed < kSeedBase + 120 && compared < 2; ++seed) {
    exp::ChaosSpec spec = exp::make_chaos_spec(seed);
    if (!spec.parity_friendly || !spec.has_rescale) continue;
    ++compared;
    exp::ChaosReport sim = exp::run_chaos_sim(spec, /*include_faults=*/false);
    std::vector<std::uint64_t> async_counts = exp::run_chaos_async(spec);
    ASSERT_EQ(sim.executed_per_task.size(), async_counts.size()) << "seed " << seed;
    for (std::size_t t = 0; t < async_counts.size(); ++t) {
      EXPECT_EQ(sim.executed_per_task[t], async_counts[t])
          << "seed " << seed << " task " << t << " (sim vs async, rescaled)";
    }
  }
  EXPECT_EQ(compared, 2u) << "expected rescaled parity-friendly seeds in the sweep prefix";
}

/// Mutation check: invariant 6 is not vacuous. Perturbing the rescale
/// bookkeeping of an otherwise-clean rescaled run (a worker left retired,
/// a retire whose re-add never happened, a phantom retire, rescale
/// activity on a seed that scripted none) must all be caught — and a
/// broken migration drain that strands queued tuples trips conservation.
TEST(ChaosInvariants, RescaleInvariantChecksCatchMutations) {
  std::uint64_t rescaled_seed = 0;
  std::uint64_t quiet_seed = 0;
  bool have_rescaled = false;
  bool have_quiet = false;
  for (std::uint64_t seed = kSeedBase; seed < kSeedBase + 60; ++seed) {
    exp::ChaosSpec spec = exp::make_chaos_spec(seed);
    if (spec.has_rescale && !have_rescaled) {
      rescaled_seed = seed;
      have_rescaled = true;
    }
    if (!spec.has_rescale && !have_quiet) {
      quiet_seed = seed;
      have_quiet = true;
    }
    if (have_rescaled && have_quiet) break;
  }
  ASSERT_TRUE(have_rescaled && have_quiet);

  exp::ChaosSpec spec = exp::make_chaos_spec(rescaled_seed);
  const exp::ChaosReport clean = exp::run_chaos_sim(spec);
  ASSERT_TRUE(exp::check_chaos_invariants(spec, clean).empty());

  // A worker left retired after the run.
  exp::ChaosReport m = clean;
  ASSERT_FALSE(m.active_end.empty());
  m.active_end.back() = false;
  EXPECT_NE(exp::check_chaos_invariants(spec, m).find("rescale"), std::string::npos);
  // A retire whose paired re-add never happened.
  m = clean;
  m.totals.worker_adds -= 1;
  EXPECT_NE(exp::check_chaos_invariants(spec, m).find("rescale"), std::string::npos);
  // A retire the script never asked for.
  m = clean;
  m.totals.worker_retires += 1;
  EXPECT_NE(exp::check_chaos_invariants(spec, m).find("rescale"), std::string::npos);
  // A migration drain that strands queued tuples is a conservation
  // violation, caught with its own diagnostic before invariant 6 runs.
  m = clean;
  m.residual_queued = 3;
  EXPECT_NE(exp::check_chaos_invariants(spec, m).find("conservation"), std::string::npos);

  // On a seed that scripted no rescales, any rescale activity is flagged.
  exp::ChaosSpec quiet = exp::make_chaos_spec(quiet_seed);
  const exp::ChaosReport quiet_clean = exp::run_chaos_sim(quiet);
  ASSERT_TRUE(exp::check_chaos_invariants(quiet, quiet_clean).empty());
  m = quiet_clean;
  m.totals.task_migrations = 2;
  EXPECT_NE(exp::check_chaos_invariants(quiet, m).find("unscripted"), std::string::npos);
}

// --- new controller arms under live churn --------------------------------

namespace churn {

class ChurnSpout : public dsps::Spout {
 public:
  double next_delay(sim::SimTime) override { return 1.0 / 2000.0; }
  std::optional<dsps::Values> next(sim::SimTime) override { return dsps::Values{n_++}; }

 private:
  std::int64_t n_ = 0;
};

class ChurnRelay : public dsps::Bolt {
 public:
  void execute(const dsps::Tuple& in, dsps::OutputCollector& out) override {
    out.emit(in.values);
  }
};

class ChurnSink : public dsps::Bolt {
 public:
  void execute(const dsps::Tuple&, dsps::OutputCollector&) override {}
};

/// src -> relay(4) -> sink, with the src -> relay edge dynamic when the
/// attaching controller needs a routing actuator.
dsps::Topology topo(bool dynamic_edge) {
  dsps::TopologyBuilder b("controller-churn");
  b.set_spout("src", [] { return std::make_unique<ChurnSpout>(); });
  auto relay = b.set_bolt("relay", [] { return std::make_unique<ChurnRelay>(); }, 4);
  if (dynamic_edge) {
    relay.dynamic_grouping("src");
  } else {
    relay.shuffle_grouping("src");
  }
  b.set_bolt("sink", [] { return std::make_unique<ChurnSink>(); }).global_grouping("relay");
  return b.build();
}

}  // namespace churn

/// The new controller arms actuate from the sampler-thread control hook —
/// the DRL arm writes split ratios, the rate arm retunes the spout-credit
/// atomic — while the main thread crashes/restarts one worker and
/// retires/re-adds another. TSan watches exactly this interleaving; the
/// assertions check the controllers kept deciding through the churn and
/// the placement stayed audit-clean.
TEST(ChaosInvariants, ControllerActuationUnderLiveChurn) {
  {
    rt::AsyncConfig cfg;
    cfg.workers = 3;
    cfg.window_seconds = 0.1;
    rt::AsyncEngine engine(churn::topo(/*dynamic_edge=*/true), cfg);
    control::DrlControllerConfig dcfg;
    dcfg.control_interval = 0.2;
    control::DrlController drl(dcfg);
    drl.attach(engine);
    engine.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    auto [lo, hi] = engine.tasks_of("relay");
    const std::size_t victim = engine.worker_of_task(lo);
    engine.crash_worker(victim);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    engine.restart_worker(victim);
    const std::size_t retired = (victim + 1) % cfg.workers;
    engine.retire_worker(retired);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    engine.add_worker(retired);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    engine.stop();
    EXPECT_GT(drl.totals().control_rounds, 0u);
    EXPECT_FALSE(drl.decisions().empty());
    EXPECT_TRUE(engine.placement_audit().empty()) << engine.placement_audit();
    (void)hi;
  }
  {
    rt::AsyncConfig cfg;
    cfg.workers = 3;
    cfg.window_seconds = 0.1;
    rt::AsyncEngine engine(churn::topo(/*dynamic_edge=*/false), cfg);
    control::RateControllerConfig rcfg;
    rcfg.control_interval = 0.2;
    rcfg.min_pending = 8;
    control::RateController rate(rcfg);
    rate.attach(engine);
    engine.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    auto [lo, hi] = engine.tasks_of("relay");
    const std::size_t victim = engine.worker_of_task(lo);
    engine.crash_worker(victim);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    engine.restart_worker(victim);
    const std::size_t retired = (victim + 1) % cfg.workers;
    engine.retire_worker(retired);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    engine.add_worker(retired);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    engine.stop();
    EXPECT_GT(rate.totals().control_rounds, 0u);
    EXPECT_GE(engine.max_spout_pending(), rcfg.min_pending);
    EXPECT_TRUE(engine.placement_audit().empty()) << engine.placement_audit();
    (void)hi;
  }
}

/// The fault plan only perturbs the run between first fault and last
/// recovery: the crash-free mirror of the same spec processes the same
/// finite stream, and both end with every value at the sinks.
TEST(ChaosInvariants, CrashFreeMirrorSeesEveryValue) {
  for (std::uint64_t seed : {kSeedBase + 1, kSeedBase + 12, kSeedBase + 33}) {
    exp::ChaosSpec spec = exp::make_chaos_spec(seed);
    exp::ChaosReport mirror = exp::run_chaos_sim(spec, /*include_faults=*/false);
    EXPECT_EQ(mirror.missing_values, 0u) << "seed " << seed;
    EXPECT_EQ(mirror.totals.tuples_lost, 0u) << "seed " << seed;
    EXPECT_EQ(mirror.totals.worker_crashes, 0u) << "seed " << seed;
    EXPECT_EQ(mirror.totals.replays, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace repro

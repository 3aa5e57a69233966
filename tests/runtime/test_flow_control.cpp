// The flow-control spine: config validation, CLI flag parsing, admission
// semantics per policy, credit accounting, and the window/lifetime
// loss-and-stall counters both engines drain into WindowSample.
#include "runtime/flow_control.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

namespace repro::runtime {
namespace {

TEST(FlowControlConfig, ValidatesPolicyCapacityPairing) {
  FlowControlConfig ok_unbounded;  // defaults: cap 0, kUnbounded
  EXPECT_NO_THROW(ok_unbounded.validate());
  EXPECT_FALSE(ok_unbounded.bounded());

  FlowControlConfig ok_block{64, OverflowPolicy::kBlockUpstream};
  EXPECT_NO_THROW(ok_block.validate());
  EXPECT_TRUE(ok_block.bounded());

  // A bounded policy needs a positive capacity.
  FlowControlConfig zero_cap{0, OverflowPolicy::kBlockUpstream};
  EXPECT_THROW(zero_cap.validate(), std::invalid_argument);
  FlowControlConfig zero_cap_drop{0, OverflowPolicy::kDropNewest};
  EXPECT_THROW(zero_cap_drop.validate(), std::invalid_argument);

  // A capacity with no policy to enforce it is a silent no-op: reject.
  FlowControlConfig cap_no_policy{16, OverflowPolicy::kUnbounded};
  EXPECT_THROW(cap_no_policy.validate(), std::invalid_argument);
}

TEST(FlowControlConfig, ParsesPolicyNames) {
  EXPECT_EQ(parse_overflow_policy("unbounded"), OverflowPolicy::kUnbounded);
  EXPECT_EQ(parse_overflow_policy("block"), OverflowPolicy::kBlockUpstream);
  EXPECT_EQ(parse_overflow_policy("drop"), OverflowPolicy::kDropNewest);
  EXPECT_THROW(parse_overflow_policy("dropp"), std::invalid_argument);
  EXPECT_THROW(parse_overflow_policy(""), std::invalid_argument);
  // Round trip through the canonical names.
  EXPECT_EQ(parse_overflow_policy(overflow_policy_name(OverflowPolicy::kBlockUpstream)),
            OverflowPolicy::kBlockUpstream);
  EXPECT_EQ(parse_overflow_policy(overflow_policy_name(OverflowPolicy::kDropNewest)),
            OverflowPolicy::kDropNewest);
  EXPECT_EQ(parse_overflow_policy(overflow_policy_name(OverflowPolicy::kUnbounded)),
            OverflowPolicy::kUnbounded);
}

TEST(FlowControlConfig, FlagBuilderRejectsNegativeCapacity) {
  // -1 would wrap to SIZE_MAX ("practically unbounded") without the check.
  EXPECT_THROW(flow_config_from_flags(-1, "block"), std::invalid_argument);
  EXPECT_THROW(flow_config_from_flags(-64, "drop"), std::invalid_argument);
  FlowControlConfig cfg = flow_config_from_flags(64, "block");
  EXPECT_EQ(cfg.queue_capacity, 64u);
  EXPECT_EQ(cfg.policy, OverflowPolicy::kBlockUpstream);
  // The builder validates: cap without a bounded policy is rejected too.
  EXPECT_THROW(flow_config_from_flags(64, "unbounded"), std::invalid_argument);
  EXPECT_THROW(flow_config_from_flags(0, "block"), std::invalid_argument);
}

common::Flags make_flags(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return common::Flags(static_cast<int>(args.size()), args.data());
}

TEST(BackendKind, ParsesBackendNames) {
  EXPECT_EQ(parse_backend_kind("sim"), BackendKind::kSim);
  EXPECT_EQ(parse_backend_kind("async"), BackendKind::kAsync);
  EXPECT_THROW(parse_backend_kind("asink"), std::invalid_argument);
  EXPECT_THROW(parse_backend_kind(""), std::invalid_argument);
  // Round trip through the canonical names.
  EXPECT_EQ(parse_backend_kind(backend_kind_name(BackendKind::kSim)), BackendKind::kSim);
  EXPECT_EQ(parse_backend_kind(backend_kind_name(BackendKind::kAsync)), BackendKind::kAsync);
}

TEST(BackendKind, RemovedRtBackendFailsClosedPointingToAsync) {
  try {
    parse_backend_kind("rt");
    FAIL() << "backend 'rt' must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("async"), std::string::npos) << e.what();
  }
}

TEST(DataPathFlags, AppliesOnlyPresentFlags) {
  FlowControlConfig flow;
  std::size_t pending = 1234;
  std::size_t batch = 1;
  BackendKind backend = BackendKind::kSim;
  // No data-path flags at all: everything keeps the caller's defaults
  // (including the caller's default backend).
  EXPECT_TRUE(apply_data_path_flags(make_flags({"--other=x"}), flow, pending, batch, backend));
  EXPECT_FALSE(flow.bounded());
  EXPECT_EQ(pending, 1234u);
  EXPECT_EQ(batch, 1u);
  EXPECT_EQ(backend, BackendKind::kSim);

  EXPECT_TRUE(apply_data_path_flags(
      make_flags({"--queue-cap=64", "--overflow-policy=drop", "--max-pending=500",
                  "--batch-size=32", "--backend=async"}),
      flow, pending, batch, backend));
  EXPECT_EQ(flow.policy, OverflowPolicy::kDropNewest);
  EXPECT_EQ(flow.queue_capacity, 64u);
  EXPECT_EQ(pending, 500u);
  EXPECT_EQ(batch, 32u);
  EXPECT_EQ(backend, BackendKind::kAsync);

  EXPECT_TRUE(apply_data_path_flags(make_flags({"--backend=sim"}), flow, pending, batch, backend));
  EXPECT_EQ(backend, BackendKind::kSim);
  EXPECT_FALSE(apply_data_path_flags(make_flags({"--backend=rt"}), flow, pending, batch, backend));
  EXPECT_FALSE(
      apply_data_path_flags(make_flags({"--backend=nope"}), flow, pending, batch, backend));
}

TEST(DataPathFlags, BadValuesReturnFalseForExit2) {
  // Each bad spelling/value is the CLI's exit-2 path: the helper reports
  // to stderr and returns false without touching the untouched fields.
  const std::vector<std::vector<const char*>> bad = {
      {"--queue-cap=-1", "--overflow-policy=block"},  // negative capacity
      {"--queue-cap=64", "--overflow-policy=dropp"},  // unknown policy
      {"--queue-cap=64"},                             // cap without bounded policy
      {"--overflow-policy=block"},                    // bounded policy without cap
      {"--max-pending=-5"},                           // negative pending
      {"--batch-size=0"},                             // batch must be >= 1
      {"--batch-size=-8"},
      {"--backend=threads"},                          // unknown backend
      {"--backend=rt"},                               // removed backend
      {"--backend="},
  };
  for (const auto& args : bad) {
    FlowControlConfig flow;
    std::size_t pending = 0;
    std::size_t batch = 1;
    BackendKind backend = BackendKind::kSim;
    EXPECT_FALSE(apply_data_path_flags(make_flags(args), flow, pending, batch, backend))
        << "args[0]=" << args[0];
    EXPECT_EQ(batch, 1u) << "bad flag must not partially apply batch size";
    EXPECT_EQ(backend, BackendKind::kSim) << "bad flag must not change the backend";
  }
}

TEST(DataPathFlags, NamesAndUsageCoverEveryFlag) {
  const auto& names = data_path_flag_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "queue-cap"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "overflow-policy"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "max-pending"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "batch-size"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "backend"), names.end());
  const std::string usage = data_path_flag_usage();
  for (const auto& name : names) {
    EXPECT_NE(usage.find("--" + name), std::string::npos) << name << " missing from usage";
  }
}

TEST(FlowControl, UnboundedAlwaysAcceptsAndSkipsAccounting) {
  FlowControl fc({}, 4);
  EXPECT_FALSE(fc.bounded());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(fc.admit(2), FlowControl::Admit::kAccept);
    fc.acquire(2);  // no-op on the historical hot path
  }
  EXPECT_EQ(fc.occupancy(2), 0u);
  EXPECT_EQ(fc.total_dropped_overflow(), 0u);
  EXPECT_DOUBLE_EQ(fc.total_stall_seconds(), 0.0);
}

TEST(FlowControl, BlockPolicyBlocksAtCapacity) {
  FlowControl fc({3, OverflowPolicy::kBlockUpstream}, 2);
  EXPECT_TRUE(fc.bounded());
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(fc.admit(0), FlowControl::Admit::kAccept);
    fc.acquire(0);
  }
  EXPECT_EQ(fc.occupancy(0), 3u);
  EXPECT_EQ(fc.admit(0), FlowControl::Admit::kBlock);
  // Tasks are independent: task 1 still has credit.
  EXPECT_EQ(fc.admit(1), FlowControl::Admit::kAccept);
  // A release reopens admission.
  fc.release(0);
  EXPECT_EQ(fc.occupancy(0), 2u);
  EXPECT_EQ(fc.admit(0), FlowControl::Admit::kAccept);
}

TEST(FlowControl, DropPolicyShedsAtCapacityAndCounts) {
  FlowControl fc({2, OverflowPolicy::kDropNewest}, 1);
  fc.acquire(0);
  fc.acquire(0);
  EXPECT_EQ(fc.admit(0), FlowControl::Admit::kDrop);
  fc.count_overflow_drop(0);
  fc.count_overflow_drop(0);
  EXPECT_EQ(fc.dropped_overflow(0), 2u);
  EXPECT_EQ(fc.total_dropped_overflow(), 2u);
  // The window accumulator drains once; the lifetime total persists.
  EXPECT_EQ(fc.take_overflow_drops(0), 2u);
  EXPECT_EQ(fc.take_overflow_drops(0), 0u);
  EXPECT_EQ(fc.dropped_overflow(0), 2u);
}

TEST(FlowControl, ReleaseSaturatesAtZero) {
  // The crash path can race a completion already in flight; credits must
  // never underflow into SIZE_MAX (which would wedge admission open).
  FlowControl fc({4, OverflowPolicy::kBlockUpstream}, 1);
  fc.acquire(0);
  fc.release(0);
  fc.release(0);  // spurious
  EXPECT_EQ(fc.occupancy(0), 0u);
  fc.acquire(0);
  fc.acquire(0);
  fc.acquire(0);
  fc.release_n(0, 100);  // crash-path bulk release larger than held
  EXPECT_EQ(fc.occupancy(0), 0u);
  EXPECT_EQ(fc.admit(0), FlowControl::Admit::kAccept);
}

TEST(FlowControl, StallAccountingWindowsAndTotals) {
  FlowControl fc({4, OverflowPolicy::kBlockUpstream}, 2);
  fc.add_stall(0, 0.25);
  fc.add_stall(0, 0.5);
  fc.add_stall(1, 1.0);
  EXPECT_NEAR(fc.stall_seconds(0), 0.75, 1e-9);
  EXPECT_NEAR(fc.total_stall_seconds(), 1.75, 1e-9);
  EXPECT_NEAR(fc.take_stall(0), 0.75, 1e-9);
  EXPECT_NEAR(fc.take_stall(0), 0.0, 1e-9);
  // Lifetime view survives the window drain.
  EXPECT_NEAR(fc.stall_seconds(0), 0.75, 1e-9);
  EXPECT_NEAR(fc.total_stall_seconds(), 1.75, 1e-9);
}

}  // namespace
}  // namespace repro::runtime

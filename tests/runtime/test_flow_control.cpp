// The flow-control spine: config validation, policy and backend name
// parsing, admission semantics per policy, credit accounting, and the
// window/lifetime loss-and-stall counters both engines drain into
// WindowSample.
#include "runtime/flow_control.hpp"

#include <gtest/gtest.h>

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

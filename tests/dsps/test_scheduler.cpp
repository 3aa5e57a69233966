#include "dsps/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace repro::dsps {
namespace {

class NoopSpout : public Spout {
 public:
  double next_delay(sim::SimTime) override { return 1.0; }
  std::optional<Values> next(sim::SimTime) override { return std::nullopt; }
};
class NoopBolt : public Bolt {
 public:
  void execute(const Tuple&, OutputCollector&) override {}
};

Topology sample_topology() {
  TopologyBuilder b("t");
  b.set_spout("s", [] { return std::make_unique<NoopSpout>(); }, 2);
  b.set_bolt("b1", [] { return std::make_unique<NoopBolt>(); }, 4).shuffle_grouping("s");
  b.set_bolt("b2", [] { return std::make_unique<NoopBolt>(); }, 2).shuffle_grouping("b1");
  return b.build();
}

TEST(Scheduler, WorkersRoundRobinAcrossMachines) {
  Topology t = sample_topology();
  Assignment a = interleaved_schedule(t, 6, 3);
  EXPECT_EQ(a.worker_to_machine, (std::vector<std::size_t>{0, 1, 2, 0, 1, 2}));
}

TEST(Scheduler, InterleavedSpreadsEachComponent) {
  Topology t = sample_topology();
  Assignment a = interleaved_schedule(t, 4, 2);
  // Component b1 (tasks 2..5) must hit 4 distinct workers.
  std::vector<std::size_t> b1(a.task_to_worker.begin() + 2, a.task_to_worker.begin() + 6);
  std::sort(b1.begin(), b1.end());
  EXPECT_EQ(b1, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(Scheduler, InterleavedStaggersComponents) {
  Topology t = sample_topology();
  Assignment a = interleaved_schedule(t, 4, 2);
  // Spout starts at worker 0, b1 at worker 1, b2 at worker 2.
  EXPECT_EQ(a.task_to_worker[0], 0u);
  EXPECT_EQ(a.task_to_worker[2], 1u);
  EXPECT_EQ(a.task_to_worker[6], 2u);
}

TEST(Scheduler, ZeroWorkersThrows) {
  Topology t = sample_topology();
  EXPECT_THROW(interleaved_schedule(t, 0, 1), std::invalid_argument);
  EXPECT_THROW(interleaved_schedule(t, 1, 0), std::invalid_argument);
}

TEST(Scheduler, DeterministicAssignment) {
  Topology t = sample_topology();
  Assignment a = interleaved_schedule(t, 5, 2);
  Assignment b = interleaved_schedule(t, 5, 2);
  EXPECT_EQ(a.task_to_worker, b.task_to_worker);
  EXPECT_EQ(a.worker_to_machine, b.worker_to_machine);
}

}  // namespace
}  // namespace repro::dsps

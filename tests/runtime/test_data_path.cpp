// Hand-driven checks of the shared tuple path (runtime::DataPath) in its
// no-lock instantiation. No scheduler runs: admission holds or sheds each
// routed copy, and every step runs when the test calls it, at the time the
// test passes.
#include "runtime/data_path.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace repro::runtime {
namespace {

class OneValueSpout : public dsps::Spout {
 public:
  double next_delay(sim::SimTime) override { return 1e-3; }
  std::optional<dsps::Values> next(sim::SimTime) override { return dsps::Values{n_++}; }

 private:
  std::int64_t n_ = 0;
};

/// One child per input.
class ForwardBolt : public dsps::Bolt {
 public:
  void execute(const dsps::Tuple& in, dsps::OutputCollector& out) override { out.emit(in.values); }
};

class SinkBolt : public dsps::Bolt {
 public:
  void execute(const dsps::Tuple&, dsps::OutputCollector&) override {}
};

/// src -> mid(`mid_parallelism`, shuffle) -> sink(2, all).
dsps::Topology chain(std::size_t mid_parallelism) {
  dsps::TopologyBuilder b("data-path-test");
  b.set_spout("src", [] { return std::make_unique<OneValueSpout>(); });
  b.set_bolt("mid", [] { return std::make_unique<ForwardBolt>(); }, mid_parallelism)
      .shuffle_grouping("src");
  b.set_bolt("sink", [] { return std::make_unique<SinkBolt>(); }, 2).all_grouping("mid");
  return b.build();
}

DataPathConfig path_config(std::size_t batch_size, std::size_t max_pending = 100) {
  DataPathConfig cfg;
  cfg.batch_size = batch_size;
  cfg.max_spout_pending = max_pending;
  cfg.ack_timeout = 5.0;
  cfg.window_seconds = 0.5;
  return cfg;
}

/// The path with a scripted scheduler in place of an engine.
class HandPath : public DataPath<NoLock> {
 public:
  struct Held {
    std::size_t dest = 0;
    TupleBatch batch;
  };

  HandPath(dsps::Topology topology, DataPathConfig config)
      : DataPath(std::move(topology), 2, 1, 7, config) {}

  std::string backend_name() const override { return "hand"; }
  double now_seconds() const override { return now; }
  std::size_t queue_length_of_task(std::size_t) const override { return 0; }

  using DataPath::close_window;
  using DataPath::fire_control;

  /// One spout pull at `now` (up to one batch).
  void pull() {
    double delay = 0.0;
    ASSERT_TRUE(pull_roots(tasks_of("src").first, now, delay));
  }

  /// Execute the oldest held copy at its destination, acking at `now`.
  /// `end_service` runs between the flush and the ack.
  template <typename Fn>
  void run_next(Fn&& end_service) {
    Held h = std::move(held.front());
    held.erase(held.begin());
    execute(h.dest, h.batch, [&] {
      end_service();
      return now;
    });
  }
  void run_next() {
    run_next([] {});
  }

  /// Close one window at `now` and give the control hook its turn.
  void close() {
    close_window(dsps::WindowSample{}, now);
    fire_control();
  }

  bool shed = false;  ///< shed every copy at admission instead of holding it
  std::vector<Held> held;
  double now = 0.0;

 protected:
  void count_emitted(std::size_t, std::size_t) override {}
  void admit(std::size_t, std::size_t dest, TupleBatch& batch) override {
    TupleBatch taken = std::move(batch);
    if (!shed) held.push_back({dest, std::move(taken)});
  }
};

TEST(DataPath, ShedCopyKeepsRootPendingUntilTimeout) {
  HandPath path(chain(1), path_config(1));
  path.shed = true;
  path.pull();
  // The copy toward mid was shed at admission, but it was anchored first:
  // the root stays pending instead of completing as "nothing subscribed".
  EXPECT_EQ(path.pending_roots(), 1u);
  path.now = 4.0;
  path.close();
  EXPECT_EQ(path.window_history().back().topology.failed, 0u);
  EXPECT_EQ(path.pending_roots(), 1u);
  path.now = 5.0;  // the ack timeout
  path.close();
  EXPECT_EQ(path.window_history().back().topology.failed, 1u);
  EXPECT_EQ(path.window_history().back().topology.acked, 0u);
  EXPECT_EQ(path.pending_roots(), 0u);
}

TEST(DataPath, ParkedCopyKeepsRootPending) {
  HandPath path(chain(1), path_config(1));
  path.pull();
  ASSERT_EQ(path.held.size(), 1u);  // parked toward mid
  EXPECT_EQ(path.pending_roots(), 1u);
  path.run_next();  // mid: one child to each sink task
  EXPECT_EQ(path.pending_roots(), 1u);
  ASSERT_EQ(path.held.size(), 2u);
  path.run_next();
  EXPECT_EQ(path.pending_roots(), 1u);
  path.run_next();
  EXPECT_EQ(path.pending_roots(), 0u);
  path.now = 0.5;
  path.close();
  EXPECT_EQ(path.window_history().back().topology.acked, 1u);
  EXPECT_EQ(path.window_history().back().topology.roots_emitted, 1u);
}

TEST(DataPath, FlushesEmitsBeforeAck) {
  // Batch size 4 with one root in flight: mid's single child stays in its
  // emit buffer until the end-of-batch flush.
  HandPath path(chain(1), path_config(4, 1));
  path.pull();
  ASSERT_EQ(path.held.size(), 1u);
  std::size_t held_at_end_of_service = 0;
  path.run_next([&] { held_at_end_of_service = path.held.size(); });
  EXPECT_EQ(held_at_end_of_service, 2u) << "children must be routed before the ack";
  EXPECT_EQ(path.pending_roots(), 1u) << "the root completed while its children were buffered";
  path.run_next();
  path.run_next();
  EXPECT_EQ(path.pending_roots(), 0u);
}

TEST(DataPath, IdsUniqueAcrossRootsAndRows) {
  // The second pull fills only the room left under the cap of 6.
  HandPath path(chain(2), path_config(4, 6));
  path.pull();
  path.pull();
  std::set<std::uint64_t> roots;
  std::vector<std::uint64_t> ids;
  while (!path.held.empty()) {
    const TupleBatch& b = path.held.front().batch;
    roots.insert(b.root_ids.begin(), b.root_ids.end());
    ids.insert(ids.end(), b.ids.begin(), b.ids.end());
    path.run_next();
  }
  EXPECT_EQ(roots.size(), 6u);
  // 6 rows toward mid, then each child row to both sink tasks.
  ASSERT_EQ(ids.size(), 18u);
  std::set<std::uint64_t> all(roots);
  for (std::uint64_t id : ids) {
    EXPECT_NE(id, 0u);
    EXPECT_TRUE(all.insert(id).second) << "id " << id << " issued twice";
  }
  EXPECT_EQ(path.pending_roots(), 0u);
}

TEST(DataPath, ControlHookFiresEveryRoundedInterval) {
  HandPath path(chain(1), path_config(1));  // 0.5 s windows
  std::vector<std::uint64_t> fired_at;
  // 1.25 s / 0.5 s = 2.5 windows, rounded to 3.
  path.set_control_hook(1.25, [&](ControlSurface& surface) {
    fired_at.push_back(surface.window_history().total());
  });
  for (int w = 1; w <= 9; ++w) {
    path.now = 0.5 * w;
    path.close();
  }
  EXPECT_EQ(fired_at, (std::vector<std::uint64_t>{3, 6, 9}));

  // An interval shorter than half a window still fires every window.
  fired_at.clear();
  path.set_control_hook(0.2, [&](ControlSurface&) { fired_at.push_back(0); });
  for (int w = 0; w < 3; ++w) path.close();
  EXPECT_EQ(fired_at.size(), 3u);
}

}  // namespace
}  // namespace repro::runtime

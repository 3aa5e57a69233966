#include "dsps/acker.hpp"

#include <gtest/gtest.h>

#include <map>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"

namespace repro::dsps {
namespace {

struct AckerFixture : ::testing::Test {
  AckerFixture() : acker(5.0) {
    acker.set_on_complete([this](std::uint64_t root, double latency, std::size_t spout) {
      completed.push_back(root);
      latencies.push_back(latency);
      spouts.push_back(spout);
    });
    acker.set_on_fail([this](std::uint64_t root, std::size_t) { failed.push_back(root); });
  }
  Acker acker;
  std::vector<std::uint64_t> completed, failed;
  std::vector<double> latencies;
  std::vector<std::size_t> spouts;
};

TEST_F(AckerFixture, SingleTupleTree) {
  acker.register_root(1, 0.0, 0);
  acker.add_anchor(1, 100);
  EXPECT_EQ(acker.pending(), 1u);
  acker.ack_tuple(1, 100, 2.5);
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_EQ(completed[0], 1u);
  EXPECT_DOUBLE_EQ(latencies[0], 2.5);
  EXPECT_EQ(acker.pending(), 0u);
}

TEST_F(AckerFixture, MultiLevelTree) {
  // root -> a -> {b, c}; completion only after every node acks.
  acker.register_root(1, 0.0, 0);
  acker.add_anchor(1, 10);  // a delivered
  acker.add_anchor(1, 20);  // b delivered (emitted during a's execute)
  acker.add_anchor(1, 30);  // c delivered
  acker.ack_tuple(1, 10, 1.0);
  EXPECT_TRUE(completed.empty());
  acker.ack_tuple(1, 20, 2.0);
  EXPECT_TRUE(completed.empty());
  acker.ack_tuple(1, 30, 3.0);
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_DOUBLE_EQ(latencies[0], 3.0);
}

TEST_F(AckerFixture, InterleavedAnchorAndAck) {
  acker.register_root(1, 0.0, 0);
  acker.add_anchor(1, 10);
  // Processing a emits d, then acks a.
  acker.add_anchor(1, 40);
  acker.ack_tuple(1, 10, 1.0);
  EXPECT_TRUE(completed.empty());
  acker.ack_tuple(1, 40, 2.0);
  EXPECT_EQ(completed.size(), 1u);
}

TEST_F(AckerFixture, TimeoutSweepFails) {
  acker.register_root(1, 0.0, 0);
  acker.add_anchor(1, 10);
  acker.register_root(2, 4.0, 0);
  acker.add_anchor(2, 20);
  acker.sweep(5.0);  // root 1 is 5s old -> fail; root 2 only 1s old
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0], 1u);
  EXPECT_EQ(acker.pending(), 1u);
}

TEST_F(AckerFixture, AckAfterFailIsIgnored) {
  acker.register_root(1, 0.0, 0);
  acker.add_anchor(1, 10);
  acker.sweep(10.0);
  acker.ack_tuple(1, 10, 11.0);
  EXPECT_TRUE(completed.empty());
  EXPECT_EQ(failed.size(), 1u);
}

TEST_F(AckerFixture, PendingPerSpoutTask) {
  acker.register_root(1, 0.0, 0);
  acker.register_root(2, 0.0, 1);
  acker.register_root(3, 0.0, 1);
  EXPECT_EQ(acker.pending_for(0), 1u);
  EXPECT_EQ(acker.pending_for(1), 2u);
  EXPECT_EQ(acker.pending_for(7), 0u);
  acker.add_anchor(2, 50);
  acker.ack_tuple(2, 50, 1.0);
  EXPECT_EQ(acker.pending_for(1), 1u);
}

TEST_F(AckerFixture, DiscardUnanchoredCompletesImmediately) {
  acker.register_root(1, 1.0, 0);
  acker.discard_if_unanchored(1, 1.5);
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_DOUBLE_EQ(latencies[0], 0.5);
}

TEST_F(AckerFixture, DiscardDoesNothingWhenAnchored) {
  acker.register_root(1, 0.0, 0);
  acker.add_anchor(1, 10);
  acker.discard_if_unanchored(1, 1.0);
  EXPECT_TRUE(completed.empty());
  EXPECT_EQ(acker.pending(), 1u);
}

TEST_F(AckerFixture, CompletionReportsSpoutTask) {
  acker.register_root(9, 0.0, 3);
  acker.add_anchor(9, 90);
  acker.ack_tuple(9, 90, 0.1);
  ASSERT_EQ(spouts.size(), 1u);
  EXPECT_EQ(spouts[0], 3u);
}

// The O(1) per-spout pending counters must track the root map exactly
// through the full lifecycle the engines exercise: timeout-driven replay
// (sweep fails the root, the replay callback re-registers the same values
// under a fresh root id, as both engines do on crash-induced loss) and
// unanchored discard. pending_audit() recounts the map and reports the
// first divergence.
TEST_F(AckerFixture, PendingCountsMatchMapUnderReplayAndDiscard) {
  std::uint64_t next_root = 100;
  std::vector<std::uint64_t> replayed_roots;
  acker.set_on_replay([&](std::uint64_t, std::size_t spout, Values&& values,
                          std::size_t attempt) {
    // Re-emit under a fresh root, like Engine::replay_root after a crash.
    std::uint64_t fresh = next_root++;
    acker.register_root(fresh, 20.0, spout);
    acker.stash_replay(fresh, std::move(values), attempt + 1);
    acker.add_anchor(fresh, fresh * 10);
    replayed_roots.push_back(fresh);
  });

  // Roots spread over three spout tasks, all with stashed replay values.
  for (std::uint64_t r = 1; r <= 6; ++r) {
    std::size_t spout = r % 3;
    acker.register_root(r, 0.0, spout);
    acker.stash_replay(r, Values{static_cast<long long>(r)}, 0);
    acker.add_anchor(r, r * 10);
  }
  // An unanchored root (no subscribers) on spout 2, discarded immediately.
  acker.register_root(7, 0.0, 2);
  acker.discard_if_unanchored(7, 0.5);
  EXPECT_EQ(acker.pending_audit(), "");
  EXPECT_EQ(acker.pending(), 6u);
  EXPECT_EQ(acker.pending_for(0) + acker.pending_for(1) + acker.pending_for(2), 6u);

  // Two roots complete normally.
  acker.ack_tuple(1, 10, 1.0);
  acker.ack_tuple(2, 20, 1.0);
  EXPECT_EQ(acker.pending_audit(), "");
  EXPECT_EQ(acker.pending(), 4u);

  // The rest go down with a "crashed worker": never acked, so the timeout
  // sweep fails them and replay re-registers each under a fresh root.
  acker.sweep(20.0);
  EXPECT_EQ(failed.size(), 4u);
  ASSERT_EQ(replayed_roots.size(), 4u);
  EXPECT_EQ(acker.pending_audit(), "");
  EXPECT_EQ(acker.pending(), 4u);
  EXPECT_EQ(acker.pending_for(0) + acker.pending_for(1) + acker.pending_for(2), 4u);

  // Replayed roots complete; every counter drains to zero.
  for (std::uint64_t fresh : replayed_roots) acker.ack_tuple(fresh, fresh * 10, 21.0);
  EXPECT_EQ(acker.pending_audit(), "");
  EXPECT_EQ(acker.pending(), 0u);
  for (std::size_t s = 0; s < 3; ++s) EXPECT_EQ(acker.pending_for(s), 0u);
}

TEST_F(AckerFixture, UnknownRootIgnored) {
  acker.add_anchor(42, 1);
  acker.ack_tuple(42, 1, 0.0);
  EXPECT_TRUE(completed.empty());
  EXPECT_TRUE(failed.empty());
}

// --- randomized differential test against a std::map reference -------------

/// One callback invocation: 'c' complete, 'f' fail, 'r' replay.
struct AckerCall {
  char kind = 0;
  std::uint64_t root = 0;
  double latency = 0.0;
  std::size_t spout = 0;
  std::size_t attempt = 0;
  Values values;
  bool operator==(const AckerCall&) const = default;
};

std::ostream& operator<<(std::ostream& os, const AckerCall& c) {
  return os << c.kind << "(root=" << c.root << " spout=" << c.spout << " latency=" << c.latency
            << " attempt=" << c.attempt << " values=" << c.values.size() << ")";
}

/// The acker's semantics over a std::map: iteration is in root order, so
/// the sweep's canonical order comes for free. Also keeps, per root, the
/// anchored ids not yet acked, so the test loop can complete trees.
class ReferenceAcker {
 public:
  explicit ReferenceAcker(double timeout) : timeout_(timeout) {}

  std::function<void(std::uint64_t, std::size_t, Values&&, std::size_t)> on_replay;
  std::vector<AckerCall> calls;

  void register_root(std::uint64_t root, double t, std::size_t spout) {
    if (entries_.emplace(root, Entry{0, t, spout, false, false, 0, {}, {}}).second) {
      live_index_[root] = live_.size();
      live_.push_back(root);
    }
    if (spout >= counts_.size()) counts_.resize(spout + 1, 0);
    ++counts_[spout];
  }
  void stash_replay(std::uint64_t root, Values values, std::size_t attempt) {
    auto it = entries_.find(root);
    if (it == entries_.end()) return;
    it->second.has_replay = true;
    it->second.attempt = attempt;
    it->second.values = std::move(values);
  }
  void add_anchors(const std::uint64_t* roots, const std::uint64_t* ids, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      auto it = roots[i] == 0 ? entries_.end() : entries_.find(roots[i]);
      if (it == entries_.end()) continue;
      it->second.ack_val ^= ids[i];
      it->second.anchored = true;
      it->second.outstanding.push_back(ids[i]);
    }
  }
  void ack_batch(const std::uint64_t* roots, const std::uint64_t* ids, std::size_t n, double now) {
    for (std::size_t i = 0; i < n; ++i) {
      auto it = roots[i] == 0 ? entries_.end() : entries_.find(roots[i]);
      if (it == entries_.end()) continue;
      Entry& e = it->second;
      e.ack_val ^= ids[i];
      std::erase(e.outstanding, ids[i]);
      if (e.anchored && e.ack_val == 0) {
        const Entry done = erase(it);
        calls.push_back({'c', roots[i], now - done.emit_time, done.spout, 0, {}});
      }
    }
  }
  void discard_if_unanchored(std::uint64_t root, double now) {
    auto it = entries_.find(root);
    if (it == entries_.end() || it->second.anchored) return;
    const Entry done = erase(it);
    calls.push_back({'c', root, now - done.emit_time, done.spout, 0, {}});
  }
  void sweep(double now) {
    std::vector<std::uint64_t> expired;
    for (const auto& [root, e] : entries_) {
      if (now - e.emit_time >= timeout_) expired.push_back(root);
    }
    for (std::uint64_t root : expired) {
      Entry e = erase(entries_.find(root));
      calls.push_back({'f', root, 0.0, e.spout, 0, {}});
      if (e.has_replay) {
        calls.push_back({'r', root, 0.0, e.spout, e.attempt, e.values});
        on_replay(root, e.spout, std::move(e.values), e.attempt);
      }
    }
  }

  std::size_t pending() const { return entries_.size(); }
  std::size_t pending_for(std::size_t spout) const {
    return spout < counts_.size() ? counts_[spout] : 0;
  }
  const std::vector<std::uint64_t>& live() const { return live_; }
  const std::vector<std::uint64_t>& outstanding(std::uint64_t root) const {
    return entries_.at(root).outstanding;
  }
  bool anchored(std::uint64_t root) const { return entries_.at(root).anchored; }
  std::uint64_t ack_val(std::uint64_t root) const { return entries_.at(root).ack_val; }

 private:
  struct Entry {
    std::uint64_t ack_val;
    double emit_time;
    std::size_t spout;
    bool anchored;
    bool has_replay;
    std::size_t attempt;
    Values values;
    std::vector<std::uint64_t> outstanding;  ///< test-loop bookkeeping only
  };

  Entry erase(std::map<std::uint64_t, Entry>::iterator it) {
    const std::uint64_t root = it->first;
    Entry e = std::move(it->second);
    entries_.erase(it);
    if (counts_[e.spout] > 0) --counts_[e.spout];
    const std::size_t idx = live_index_.at(root);
    live_[idx] = live_.back();
    live_index_[live_[idx]] = idx;
    live_.pop_back();
    live_index_.erase(root);
    return e;
  }

  double timeout_;
  std::map<std::uint64_t, Entry> entries_;
  std::vector<std::size_t> counts_;
  std::vector<std::uint64_t> live_;  ///< live roots, for uniform sampling
  std::unordered_map<std::uint64_t, std::size_t> live_index_;
};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// The replay hook of both sides: re-register the failed root's values
/// under a root id derived from it (as the engines re-emit under a fresh
/// root), from inside sweep, while the sweep still holds expired roots.
template <typename A>
void reissue(A& a, std::uint64_t root, std::size_t spout, Values&& values, std::size_t attempt,
             double now) {
  if (attempt >= 2) return;
  const std::uint64_t fresh = splitmix64(root) | 1;
  a.register_root(fresh, now, spout);
  a.stash_replay(fresh, std::move(values), attempt + 1);
}

TEST(AckerDifferential, RandomOpsMatchMapReference) {
  // 120k seeded operations. The live-root target first holds the table at
  // its smallest size and half full, where probe runs constantly wrap the
  // table's end and backward-shift erases move entries across the wrap;
  // then grows the table through ten rehashes, churns near half load, and
  // drains. Roots are mostly random 64-bit ids, so probe runs collide.
  constexpr double kTimeout = 2.0;
  constexpr std::size_t kSpouts = 5;
  constexpr int kOps = 120000;
  Acker acker(kTimeout);
  ReferenceAcker model(kTimeout);
  std::vector<AckerCall> calls;
  double now = 0.0;
  acker.set_on_complete([&](std::uint64_t root, double latency, std::size_t spout) {
    calls.push_back({'c', root, latency, spout, 0, {}});
  });
  acker.set_on_fail([&](std::uint64_t root, std::size_t spout) {
    calls.push_back({'f', root, 0.0, spout, 0, {}});
  });
  acker.set_on_replay([&](std::uint64_t root, std::size_t spout, Values&& values,
                          std::size_t attempt) {
    calls.push_back({'r', root, 0.0, spout, attempt, values});
    reissue(acker, root, spout, std::move(values), attempt, now);
  });
  model.on_replay = [&](std::uint64_t root, std::size_t spout, Values&& values,
                        std::size_t attempt) {
    reissue(model, root, spout, std::move(values), attempt, now);
  };

  common::Pcg32 rng(0xac4e7, 3);
  std::uint64_t seq_root = 1;
  std::size_t peak_pending = 0;
  std::uint64_t completions = 0, fails = 0, replays = 0;
  std::vector<std::uint64_t> roots, ids;
  auto pick_live = [&]() -> std::uint64_t {
    const auto& live = model.live();
    return live.empty() ? 0 : live[rng.bounded(static_cast<std::uint32_t>(live.size()))];
  };
  auto pick_root = [&]() -> std::uint64_t {
    const double u = rng.next_double();
    if (u < 0.05) return 0;                      // unanchored row
    if (u < 0.12) return rng.next_u64() | 1;     // unknown (completed) root
    return pick_live();
  };

  auto target_live = [](int op) -> std::size_t {
    if (op < 30000) return 8;                // 16 slots, half full
    if (op < 45000) return 8 + (op - 30000) / 2;  // grow to 16384 slots
    if (op < 100000) return 7500;            // churn near half load
    return 0;                                // drain
  };

  for (int op = 0; op < kOps; ++op) {
    // Roots time out after ~2000 operations in the small-table phase and
    // ~20000 later, so the growth phase can build up thousands of them.
    now += rng.uniform(0.0, op < 30000 ? 2e-3 : 2e-4);
    // Operation mix: register or trim (steering the live-root count toward
    // its target), anchor, ack, discard, stash, sweep.
    const bool below = model.pending() < target_live(op);
    const double reg = below ? 0.45 : 0.0;
    const double trim = below ? reg : 0.45;
    const double anc = trim + 0.25;
    const double ack = anc + 0.2;
    const double u = rng.next_double();
    if (u < trim && !below) {
      // Finish one live tree: ack the id that zeroes its ack value when it
      // was anchored, discard it when not.
      const std::uint64_t root = pick_live();
      if (root != 0 && model.anchored(root)) {
        const std::uint64_t closing = model.ack_val(root);
        acker.ack_batch(&root, &closing, 1, now);
        model.ack_batch(&root, &closing, 1, now);
      } else if (root != 0) {
        acker.discard_if_unanchored(root, now);
        model.discard_if_unanchored(root, now);
      }
    } else if (u < reg) {
      const std::uint64_t root = rng.bernoulli(0.3) ? seq_root++ : (rng.next_u64() | 1);
      const std::size_t spout = rng.bounded(kSpouts);
      acker.register_root(root, now, spout);
      model.register_root(root, now, spout);
      if (rng.bernoulli(0.5)) {
        Values v{static_cast<std::int64_t>(root & 0xffff)};
        const std::size_t attempt = rng.bounded(3);
        acker.stash_replay(root, v, attempt);
        model.stash_replay(root, v, attempt);
      }
    } else if (u < anc) {
      roots.clear();
      ids.clear();
      const std::size_t n = 1 + rng.bounded(12);
      for (std::size_t i = 0; i < n; ++i) {
        // Runs of one root exercise the cached lookup.
        roots.push_back(i > 0 && rng.bernoulli(0.5) ? roots.back() : pick_root());
        ids.push_back(rng.next_u64());
      }
      acker.add_anchors(roots.data(), ids.data(), n);
      model.add_anchors(roots.data(), ids.data(), n);
    } else if (u < ack) {
      roots.clear();
      ids.clear();
      const std::size_t trees = 1 + rng.bounded(4);
      for (std::size_t k = 0; k < trees; ++k) {
        const std::uint64_t root = pick_live();
        if (root == 0) break;
        // Usually ack every outstanding id (completing an anchored tree),
        // sometimes only some, sometimes a stray id that keeps it open.
        for (std::uint64_t id : model.outstanding(root)) {
          if (rng.bernoulli(0.85)) {
            roots.push_back(root);
            ids.push_back(id);
          }
        }
        if (rng.bernoulli(0.05)) {
          roots.push_back(root);
          ids.push_back(rng.next_u64());
        }
        if (rng.bernoulli(0.1)) {  // a row after the root may have completed
          roots.push_back(root);
          ids.push_back(rng.next_u64());
        }
        if (rng.bernoulli(0.1)) {
          roots.push_back(pick_root());
          ids.push_back(rng.next_u64());
        }
      }
      acker.ack_batch(roots.data(), ids.data(), roots.size(), now);
      model.ack_batch(roots.data(), ids.data(), roots.size(), now);
    } else if (u < ack + 0.08 * (1.0 - ack)) {
      const std::uint64_t root = rng.bernoulli(0.8) ? pick_live() : (rng.next_u64() | 1);
      acker.discard_if_unanchored(root, now);
      model.discard_if_unanchored(root, now);
    } else if (rng.bernoulli(0.9)) {
      const std::uint64_t root = rng.bernoulli(0.8) ? pick_live() : (rng.next_u64() | 1);
      Values v{static_cast<std::int64_t>(op)};
      acker.stash_replay(root, v, 1);
      model.stash_replay(root, v, 1);
    } else {
      acker.sweep(now);
      model.sweep(now);
    }

    ASSERT_EQ(calls, model.calls) << "op " << op;
    for (const AckerCall& c : calls) {
      completions += c.kind == 'c';
      fails += c.kind == 'f';
      replays += c.kind == 'r';
    }
    calls.clear();
    model.calls.clear();
    ASSERT_EQ(acker.pending(), model.pending()) << "op " << op;
    for (std::size_t s = 0; s < kSpouts; ++s) {
      ASSERT_EQ(acker.pending_for(s), model.pending_for(s)) << "op " << op << " spout " << s;
    }
    ASSERT_EQ(acker.pending_audit(), "") << "op " << op;
    peak_pending = std::max(peak_pending, acker.pending());
  }
  // Drain: every remaining root times out, is failed in root order and
  // (within its replay budget) re-registered, until nothing is left.
  for (int round = 0; round < 4; ++round) {
    now += kTimeout;
    acker.sweep(now);
    model.sweep(now);
    ASSERT_EQ(calls, model.calls) << "drain round " << round;
    calls.clear();
    model.calls.clear();
  }
  EXPECT_EQ(acker.pending(), 0u);
  EXPECT_EQ(model.pending(), 0u);
  EXPECT_EQ(acker.pending_audit(), "");

  // The mix exercised what it claims to.
  EXPECT_GT(peak_pending, 4000u);
  EXPECT_GT(completions, 10000u);
  EXPECT_GT(fails, 1000u);
  EXPECT_GT(replays, 500u);
}

}  // namespace
}  // namespace repro::dsps

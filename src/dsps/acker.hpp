#pragma once
// Storm's XOR-based tuple-tree acker: each root tracks a 64-bit ack value;
// anchoring XORs a tuple id in, acking XORs it out; zero means the whole
// tree is processed. Complete latency is measured here.
//
// The acker also owns the at-least-once replay hook: the engine can stash
// a root's values (`stash_replay`), and when the timeout sweep fails that
// root the values are handed back through the replay callback so the
// engine can re-emit them under a fresh root id. This is what makes the
// delivery guarantee hold under worker crashes — lost tuples surface as
// timeouts, and timeouts drive replay.
//
// Roots live in a flat table: a dense entry array indexed by an
// open-addressing hash table (linear probing, backward-shift erase), so
// registering a root allocates nothing once the arrays have grown to the
// run's pending peak, and sweep() scans contiguous memory.
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dsps/tuple.hpp"
#include "sim/clock.hpp"

namespace repro::dsps {

class Acker {
 public:
  using CompleteFn = std::function<void(std::uint64_t root, double latency, std::size_t spout_task)>;
  using FailFn = std::function<void(std::uint64_t root, std::size_t spout_task)>;
  /// Fired by sweep() for failed roots with stashed values. `attempt` is
  /// the attempt number of the FAILED emission (0 = the original).
  using ReplayFn =
      std::function<void(std::uint64_t root, std::size_t spout_task, Values&& values,
                         std::size_t attempt)>;

  explicit Acker(double timeout) : timeout_(timeout) {}

  void set_on_complete(CompleteFn fn) { on_complete_ = std::move(fn); }
  void set_on_fail(FailFn fn) { on_fail_ = std::move(fn); }
  void set_on_replay(ReplayFn fn) { on_replay_ = std::move(fn); }

  void register_root(std::uint64_t root, sim::SimTime emit_time, std::size_t spout_task);
  /// Keep a copy of the root's values for timeout-driven replay. Call
  /// right after register_root; `attempt` counts prior emissions of the
  /// same logical tuple (0 for the original).
  void stash_replay(std::uint64_t root, Values values, std::size_t attempt);
  /// XOR a delivered tuple id into the root's ack value (a one-row
  /// add_anchors).
  void add_anchor(std::uint64_t root, std::uint64_t tuple_id);
  /// XOR a processed tuple id out; fires completion when the value reaches
  /// 0 (a one-row ack_batch).
  void ack_tuple(std::uint64_t root, std::uint64_t tuple_id, sim::SimTime now);

  // --- batched data path -------------------------------------------------
  // Column-at-a-time variants over parallel root/id arrays (a TupleBatch's
  // root_ids/ids columns). Semantically exactly n per-row calls in row
  // order — completions fire at the same row they would per-tuple — but
  // consecutive same-root runs reuse one table lookup, which is the common
  // layout after per-destination coalescing. Rows with root 0 (unanchored)
  // are skipped, mirroring the engines' per-tuple guard.
  void add_anchors(const std::uint64_t* roots, const std::uint64_t* ids, std::size_t n);
  void ack_batch(const std::uint64_t* roots, const std::uint64_t* ids, std::size_t n,
                 sim::SimTime now);

  /// Complete a root that never received an anchor (no subscribers):
  /// nothing downstream will ever ack it, so it is done by definition.
  void discard_if_unanchored(std::uint64_t root, sim::SimTime now);

  /// Fail all roots older than the timeout (in ascending root-id order, so
  /// replay re-emission is deterministic). Call periodically.
  void sweep(sim::SimTime now);

  std::size_t pending() const { return entries_.size(); }
  /// In-flight roots of one spout task. O(1): served from per-spout
  /// counters maintained at every register/complete/discard/sweep, NOT by
  /// scanning the root table — this sits on the spout-throttling hot path
  /// (max_spout_pending) and, under flow control, gates the credit-based
  /// backpressure release.
  std::size_t pending_for(std::size_t spout_task) const;
  /// Consistency audit of the cached per-spout counters against a full
  /// recount of the root table (O(pending); tests and debugging). Returns
  /// "" when they agree, else a diagnostic naming the first mismatch.
  std::string pending_audit() const;
  double timeout() const { return timeout_; }

 private:
  struct Entry {
    std::uint64_t root = 0;
    std::uint64_t ack_val = 0;
    sim::SimTime emit_time = 0.0;
    std::size_t spout_task = 0;
    bool anchored = false;  ///< at least one anchor seen
    bool has_replay = false;
    std::size_t attempt = 0;
    Values replay_values;
  };
  /// One hash-table slot: a root and its entry's position in entries_.
  struct Slot {
    std::uint64_t root = 0;
    std::uint32_t pos = kEmpty;
  };
  static constexpr std::uint32_t kEmpty = 0xffffffffu;
  static constexpr std::size_t kNotFound = static_cast<std::size_t>(-1);

  /// The root's preferred table slot.
  std::size_t home(std::uint64_t root) const;
  /// The table slot holding `root`, or kNotFound.
  std::size_t find(std::uint64_t root) const;
  /// Remove the root in table slot `slot`: backward-shift erase in the
  /// table, swap-with-last in the dense array, per-spout count down.
  Entry take(std::size_t slot);
  /// Double the table (or create it) and re-insert every entry.
  void grow();

  double timeout_;
  std::vector<Entry> entries_;   ///< dense, in no particular order
  std::vector<Slot> table_;      ///< power-of-two size, at most half full
  int shift_ = 64;               ///< 64 - log2(table_.size())
  std::vector<std::uint64_t> expired_;  ///< sweep scratch
  std::vector<std::size_t> per_spout_counts_;
  CompleteFn on_complete_;
  FailFn on_fail_;
  ReplayFn on_replay_;
};

}  // namespace repro::dsps

#include "dsps/acker.hpp"

#include <algorithm>
#include <bit>

namespace repro::dsps {

std::size_t Acker::home(std::uint64_t root) const {
  // Fibonacci hashing: roots are consecutive ids, and the multiply spreads
  // them over the table's top bits.
  return static_cast<std::size_t>((root * 0x9E3779B97F4A7C15ull) >> shift_);
}

std::size_t Acker::find(std::uint64_t root) const {
  if (table_.empty()) return kNotFound;
  const std::size_t mask = table_.size() - 1;
  for (std::size_t s = home(root);; s = (s + 1) & mask) {
    if (table_[s].pos == kEmpty) return kNotFound;
    if (table_[s].root == root) return s;
  }
}

void Acker::grow() {
  const std::size_t cap = table_.empty() ? 16 : table_.size() * 2;
  table_.assign(cap, Slot{});
  shift_ = 64 - std::countr_zero(cap);
  const std::size_t mask = cap - 1;
  for (std::size_t pos = 0; pos < entries_.size(); ++pos) {
    std::size_t s = home(entries_[pos].root);
    while (table_[s].pos != kEmpty) s = (s + 1) & mask;
    table_[s] = Slot{entries_[pos].root, static_cast<std::uint32_t>(pos)};
  }
}

Acker::Entry Acker::take(std::size_t slot) {
  const std::uint32_t pos = table_[slot].pos;
  // Backward-shift erase: pull later members of the probe run back over
  // the hole, unless their home lies cyclically in (hole, member].
  const std::size_t mask = table_.size() - 1;
  std::size_t hole = slot;
  for (std::size_t s = (slot + 1) & mask; table_[s].pos != kEmpty; s = (s + 1) & mask) {
    const std::size_t h = home(table_[s].root);
    const bool stays = hole <= s ? (hole < h && h <= s) : (hole < h || h <= s);
    if (stays) continue;
    table_[hole] = table_[s];
    hole = s;
  }
  table_[hole] = Slot{};

  Entry e = std::move(entries_[pos]);
  if (pos + 1 != entries_.size()) {
    entries_[pos] = std::move(entries_.back());
    table_[find(entries_[pos].root)].pos = pos;
  }
  entries_.pop_back();
  if (e.spout_task < per_spout_counts_.size() && per_spout_counts_[e.spout_task] > 0) {
    --per_spout_counts_[e.spout_task];
  }
  return e;
}

void Acker::register_root(std::uint64_t root, sim::SimTime emit_time, std::size_t spout_task) {
  if ((entries_.size() + 1) * 2 > table_.size()) grow();
  const std::size_t mask = table_.size() - 1;
  std::size_t s = home(root);
  while (table_[s].pos != kEmpty && table_[s].root != root) s = (s + 1) & mask;
  if (table_[s].pos == kEmpty) {
    table_[s] = Slot{root, static_cast<std::uint32_t>(entries_.size())};
    Entry& e = entries_.emplace_back();
    e.root = root;
    e.emit_time = emit_time;
    e.spout_task = spout_task;
  }
  if (spout_task >= per_spout_counts_.size()) per_spout_counts_.resize(spout_task + 1, 0);
  ++per_spout_counts_[spout_task];
}

void Acker::stash_replay(std::uint64_t root, Values values, std::size_t attempt) {
  const std::size_t s = find(root);
  if (s == kNotFound) return;  // already completed (e.g. unanchored discard)
  Entry& e = entries_[table_[s].pos];
  e.has_replay = true;
  e.attempt = attempt;
  e.replay_values = std::move(values);
}

void Acker::add_anchor(std::uint64_t root, std::uint64_t tuple_id) {
  add_anchors(&root, &tuple_id, 1);
}

void Acker::ack_tuple(std::uint64_t root, std::uint64_t tuple_id, sim::SimTime now) {
  ack_batch(&root, &tuple_id, 1, now);
}

void Acker::add_anchors(const std::uint64_t* roots, const std::uint64_t* ids, std::size_t n) {
  std::size_t slot = kNotFound;
  std::uint64_t cached_root = 0;
  bool cached = false;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t root = roots[i];
    if (root == 0) continue;
    if (!cached || root != cached_root) {
      slot = find(root);
      cached_root = root;
      cached = true;
    }
    if (slot == kNotFound) continue;  // already completed/failed
    Entry& e = entries_[table_[slot].pos];
    e.ack_val ^= ids[i];
    e.anchored = true;
  }
}

void Acker::ack_batch(const std::uint64_t* roots, const std::uint64_t* ids, std::size_t n,
                      sim::SimTime now) {
  std::size_t slot = kNotFound;
  std::uint64_t cached_root = 0;
  bool cached = false;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t root = roots[i];
    if (root == 0) continue;
    if (!cached || root != cached_root) {
      slot = find(root);
      cached_root = root;
      cached = true;
    }
    if (slot == kNotFound) continue;
    Entry& e = entries_[table_[slot].pos];
    e.ack_val ^= ids[i];
    if (e.anchored && e.ack_val == 0) {
      const Entry done = take(slot);
      cached = false;  // the cached slot died with the entry
      if (on_complete_) on_complete_(root, now - done.emit_time, done.spout_task);
    }
  }
}

void Acker::discard_if_unanchored(std::uint64_t root, sim::SimTime now) {
  const std::size_t s = find(root);
  if (s == kNotFound || entries_[table_[s].pos].anchored) return;
  const Entry e = take(s);
  if (on_complete_) on_complete_(root, now - e.emit_time, e.spout_task);
}

void Acker::sweep(sim::SimTime now) {
  expired_.clear();
  for (const Entry& e : entries_) {
    if (now - e.emit_time >= timeout_) expired_.push_back(e.root);
  }
  // Canonical order: the replay callback re-emits tuples (consuming RNG
  // draws and scheduling events), so the processing order must not depend
  // on where the table keeps its entries.
  std::sort(expired_.begin(), expired_.end());
  for (std::uint64_t root : expired_) {
    const std::size_t s = find(root);
    if (s == kNotFound) continue;
    Entry e = take(s);
    if (on_fail_) on_fail_(root, e.spout_task);
    if (e.has_replay && on_replay_) {
      on_replay_(root, e.spout_task, std::move(e.replay_values), e.attempt);
    }
  }
}

std::size_t Acker::pending_for(std::size_t spout_task) const {
  return spout_task < per_spout_counts_.size() ? per_spout_counts_[spout_task] : 0;
}

std::string Acker::pending_audit() const {
  std::vector<std::size_t> recount(per_spout_counts_.size(), 0);
  for (const Entry& e : entries_) {
    if (e.spout_task >= recount.size()) recount.resize(e.spout_task + 1, 0);
    ++recount[e.spout_task];
  }
  for (std::size_t s = 0; s < std::max(recount.size(), per_spout_counts_.size()); ++s) {
    std::size_t cached = s < per_spout_counts_.size() ? per_spout_counts_[s] : 0;
    std::size_t actual = s < recount.size() ? recount[s] : 0;
    if (cached != actual) {
      return "spout task " + std::to_string(s) + ": cached pending " + std::to_string(cached) +
             " != recounted " + std::to_string(actual);
    }
  }
  return {};
}

}  // namespace repro::dsps

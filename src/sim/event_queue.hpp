#pragma once
// Deterministic discrete-event queue. Ties in time break by insertion
// sequence number, so runs are reproducible regardless of heap internals.
//
// Storage is a binary heap of {time, seq, slot} keys over a free-listed
// slab of handlers: once the heap and the slab have grown to the run's
// peak of pending events, scheduling and running an event allocates
// nothing — provided the handler's captures fit std::function's local
// buffer (16 bytes in libstdc++: `this` plus two 32-bit indices).
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/clock.hpp"

namespace repro::sim {

class EventQueue {
 public:
  using Handler = std::function<void()>;

  SimTime now() const { return now_; }
  std::size_t pending() const { return heap_.size(); }
  std::uint64_t executed() const { return executed_; }

  /// Schedule `fn` at absolute time `t` (must be >= now).
  void schedule_at(SimTime t, Handler fn);
  void schedule_after(SimTime delay, Handler fn) { schedule_at(now_ + delay, std::move(fn)); }

  /// Run events until the queue drains or sim time would exceed `end`.
  /// Leaves now() at min(end, last event time).
  void run_until(SimTime end);

  /// Run a single event; returns false when the queue is empty.
  bool step();

  void clear();

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;  ///< index into handlers_
    // The std heap algorithms build a max-heap; invert for earliest-first.
    bool operator<(const Event& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Event> heap_;            ///< min-heap by (time, seq)
  std::vector<Handler> handlers_;      ///< slab; a slot is free while empty
  std::vector<std::uint32_t> free_;    ///< free slab slots
};

}  // namespace repro::sim

#include "sim/event_queue.hpp"

#include <algorithm>
#include <stdexcept>

namespace repro::sim {

void EventQueue::schedule_at(SimTime t, Handler fn) {
  if (t < now_) throw std::invalid_argument("EventQueue: scheduling in the past");
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(handlers_.size());
    handlers_.push_back(std::move(fn));
  } else {
    slot = free_.back();
    free_.pop_back();
    handlers_[slot] = std::move(fn);
  }
  heap_.push_back(Event{t, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end());
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end());
  const Event ev = heap_.back();
  heap_.pop_back();
  // Move the handler out before running it: it may schedule more events,
  // which can reuse its slot or grow the slab.
  Handler fn = std::move(handlers_[ev.slot]);
  free_.push_back(ev.slot);
  now_ = ev.time;
  ++executed_;
  fn();
  return true;
}

void EventQueue::run_until(SimTime end) {
  while (!heap_.empty() && heap_.front().time <= end) step();
  if (now_ < end) now_ = end;
}

void EventQueue::clear() {
  heap_.clear();
  handlers_.clear();
  free_.clear();
}

}  // namespace repro::sim

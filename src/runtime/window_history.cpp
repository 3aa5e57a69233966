#include "runtime/window_history.hpp"

#include <algorithm>
#include <stdexcept>

namespace repro::runtime {

WindowHistory::WindowHistory(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ > 0) samples_.reserve(2 * capacity_);
}

void WindowHistory::set_capacity(std::size_t capacity) {
  capacity_ = capacity;
  compact_if_needed();
  if (capacity_ > 0 && samples_.capacity() < 2 * capacity_) samples_.reserve(2 * capacity_);
}

void WindowHistory::push(dsps::WindowSample sample) {
  samples_.push_back(std::move(sample));
  storage_high_water_ = std::max(storage_high_water_, samples_.capacity());
  compact_if_needed();
}

void WindowHistory::compact_if_needed() {
  if (capacity_ == 0 || samples_.size() < 2 * capacity_) return;
  std::size_t drop = samples_.size() - capacity_;
  samples_.erase(samples_.begin(), samples_.begin() + static_cast<std::ptrdiff_t>(drop));
  first_index_ += drop;
}

const dsps::WindowSample& WindowHistory::at_global(std::size_t global_index) const {
  if (global_index < first_index_ || global_index >= total()) {
    throw std::out_of_range("WindowHistory::at_global: window " + std::to_string(global_index) +
                            " outside retained range [" + std::to_string(first_index_) + ", " +
                            std::to_string(total()) + ")");
  }
  return samples_[global_index - first_index_];
}

}  // namespace repro::runtime

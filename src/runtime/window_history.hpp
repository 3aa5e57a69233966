#pragma once
// The window-history spine: the bounded, always-on store of per-window
// statistics behind both engines. The old control plane let each engine
// grow a raw std::vector<WindowSample> forever, which capped run length
// (memory ~ run duration) and invited O(run-length) re-scans in every
// control round. WindowHistory replaces it with a retention-bounded
// buffer with *stable global window indices*: window k keeps the index k
// for the lifetime of the run even after it has been evicted, so
// incremental consumers (streaming predictors, the controller's ingest
// cursor) can track "what have I already seen" across evictions.
//
// Storage is a compacting vector rather than a classic two-pointer ring:
// samples always sit contiguous and oldest-to-newest, so samples() is a
// zero-copy vector view. Appends are amortized O(1): the buffer grows to
// 2*capacity, then one bulk erase drops the oldest half. Retention is
// therefore "at least `capacity`, at most 2*capacity - 1 samples"; the
// memory high-water mark is flat at 2*capacity samples for the whole run.
//
// Threading matches the old history vector: one writer (the simulator's
// event context or the rt metrics thread); reads are safe from control
// hooks (same context as the writer) or after the run stopped. Eviction
// invalidates references, so hooks must not hold sample references across
// rounds.
#include <cstdint>
#include <vector>

#include "dsps/metrics.hpp"

namespace repro::runtime {

class WindowHistory {
 public:
  /// `capacity` = minimum number of most-recent windows retained;
  /// 0 = unbounded (every window kept, global index == vector index).
  explicit WindowHistory(std::size_t capacity = 0);

  /// Change the retention bound. Shrinking compacts immediately; 0 makes
  /// the history unbounded from here on. Existing global indices keep
  /// their meaning.
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const { return capacity_; }
  bool bounded() const { return capacity_ > 0; }

  /// Append one window sample (O(1) amortized).
  void push(dsps::WindowSample sample);

  // --- indices ---------------------------------------------------------
  /// Total windows ever appended; the next sample gets this global index.
  std::size_t total() const { return first_index_ + samples_.size(); }
  /// Global index of the oldest retained sample.
  std::size_t first_index() const { return first_index_; }
  /// Number of retained samples.
  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  // --- views -----------------------------------------------------------
  /// Retained samples, oldest to newest, contiguous. In unbounded mode
  /// this is the complete history.
  const std::vector<dsps::WindowSample>& samples() const { return samples_; }
  /// Sample by *global* window index. Throws std::out_of_range when the
  /// window was evicted or not yet appended.
  const dsps::WindowSample& at_global(std::size_t global_index) const;
  const dsps::WindowSample& back() const { return samples_.back(); }

  /// Flat-memory diagnostic: retained-storage high-water mark in samples
  /// (vector capacity), which bounded histories keep <= 2*capacity.
  std::size_t storage_high_water() const { return storage_high_water_; }

 private:
  void compact_if_needed();

  std::size_t capacity_ = 0;
  std::size_t first_index_ = 0;
  std::vector<dsps::WindowSample> samples_;
  std::size_t storage_high_water_ = 0;
};

}  // namespace repro::runtime

#include "control/features.hpp"

#include <algorithm>
#include <stdexcept>

namespace repro::control {
namespace {

constexpr std::size_t kWorkerFeatures = 8;
constexpr std::size_t kMachineFeatures = 2;
constexpr std::size_t kPerColocated = 3;

const dsps::WorkerWindowStats& worker_stats(const dsps::WindowSample& sample, std::size_t worker) {
  for (const auto& w : sample.workers) {
    if (w.worker == worker) return w;
  }
  throw std::invalid_argument("worker_features: worker not in sample");
}

const dsps::MachineWindowStats& machine_stats(const dsps::WindowSample& sample,
                                              std::size_t machine) {
  for (const auto& m : sample.machines) {
    if (m.machine == machine) return m;
  }
  throw std::invalid_argument("worker_features: machine not in sample");
}

}  // namespace

std::size_t feature_dim(const FeatureConfig& cfg) {
  std::size_t n = kWorkerFeatures + kMachineFeatures;
  if (cfg.include_colocated) n += cfg.max_colocated * kPerColocated;
  return n;
}

std::vector<std::string> feature_names(const FeatureConfig& cfg) {
  std::vector<std::string> names = {
      "w.executed",  "w.received", "w.avg_proc_time", "w.avg_queue_wait",
      "w.queue_len", "w.cpu_share", "w.gc_pause",     "w.mem_mb",
      "m.cpu_util",  "m.load",
  };
  if (cfg.include_colocated) {
    for (std::size_t i = 0; i < cfg.max_colocated; ++i) {
      std::string p = "co" + std::to_string(i) + ".";
      names.push_back(p + "cpu_share");
      names.push_back(p + "executed");
      names.push_back(p + "queue_len");
    }
  }
  return names;
}

std::vector<double> worker_features(const dsps::WindowSample& sample, std::size_t worker,
                                    const FeatureConfig& cfg) {
  std::vector<double> f(feature_dim(cfg));
  worker_features_into(sample, worker, cfg, f.data());
  return f;
}

void worker_features_into(const dsps::WindowSample& sample, std::size_t worker,
                          const FeatureConfig& cfg, double* out) {
  const auto& w = worker_stats(sample, worker);
  const auto& m = machine_stats(sample, w.machine);

  double* f = out;
  *f++ = static_cast<double>(w.executed);
  *f++ = static_cast<double>(w.received);
  *f++ = w.avg_proc_time;
  *f++ = w.avg_queue_wait;
  *f++ = static_cast<double>(w.queue_len);
  *f++ = w.cpu_share;
  *f++ = w.gc_pause;
  *f++ = w.mem_mb;
  *f++ = m.cpu_util;
  *f++ = m.load;

  if (cfg.include_colocated) {
    // Co-located workers sorted by cpu share descending: the busiest
    // neighbors carry the interference signal. Thread-local scratch keeps
    // the streaming hot path allocation-free.
    thread_local std::vector<const dsps::WorkerWindowStats*> neighbors;
    neighbors.clear();
    for (const auto& other : sample.workers) {
      if (other.machine == w.machine && other.worker != worker) neighbors.push_back(&other);
    }
    std::sort(neighbors.begin(), neighbors.end(),
              [](const auto* a, const auto* b) { return a->cpu_share > b->cpu_share; });
    for (std::size_t i = 0; i < cfg.max_colocated; ++i) {
      if (i < neighbors.size()) {
        *f++ = neighbors[i]->cpu_share;
        *f++ = static_cast<double>(neighbors[i]->executed);
        *f++ = static_cast<double>(neighbors[i]->queue_len);
      } else {
        *f++ = 0.0;
        *f++ = 0.0;
        *f++ = 0.0;
      }
    }
  }
}

double worker_target(const dsps::WindowSample& sample, std::size_t worker) {
  return worker_stats(sample, worker).avg_proc_time;
}

std::vector<double> target_series(const std::vector<dsps::WindowSample>& history,
                                  std::size_t worker) {
  std::vector<double> out;
  out.reserve(history.size());
  for (const auto& s : history) out.push_back(worker_target(s, worker));
  return out;
}

StreamingFeatureExtractor::StreamingFeatureExtractor(FeatureConfig cfg, std::size_t capacity)
    : cfg_(cfg), dim_(feature_dim(cfg)), capacity_(capacity) {
  if (capacity_ == 0) {
    throw std::invalid_argument("StreamingFeatureExtractor: capacity must be > 0");
  }
}

void StreamingFeatureExtractor::observe(const dsps::WindowSample& sample) {
  ++windows_seen_;
  for (const auto& w : sample.workers) {
    if (w.worker >= rings_.size()) rings_.resize(w.worker + 1);
    WorkerRing& r = rings_[w.worker];
    if (r.rows.empty()) r.rows.resize(capacity_ * dim_);
    worker_features_into(sample, w.worker, cfg_, r.rows.data() + r.head * dim_);
    r.head = (r.head + 1) % capacity_;
    if (r.count < capacity_) ++r.count;
  }
}

std::size_t StreamingFeatureExtractor::rows_of(std::size_t worker) const {
  if (worker >= rings_.size()) return 0;
  return rings_[worker].count;
}

const StreamingFeatureExtractor::WorkerRing& StreamingFeatureExtractor::ring_of(
    std::size_t worker) const {
  if (worker >= rings_.size() || rings_[worker].count == 0) {
    throw std::invalid_argument("StreamingFeatureExtractor: worker " + std::to_string(worker) +
                                " never observed");
  }
  return rings_[worker];
}

void StreamingFeatureExtractor::sequence_into(std::size_t worker, std::size_t len,
                                              tensor::Matrix& out) const {
  const WorkerRing& r = ring_of(worker);
  if (len == 0 || len > r.count) {
    throw std::invalid_argument("StreamingFeatureExtractor: need " + std::to_string(len) +
                                " rows, have " + std::to_string(r.count));
  }
  out.reshape(len, dim_);
  for (std::size_t t = 0; t < len; ++t) {
    std::size_t slot = (r.head + capacity_ - len + t) % capacity_;
    const double* src = r.rows.data() + slot * dim_;
    double* dst = out.row_ptr(t);
    for (std::size_t c = 0; c < dim_; ++c) dst[c] = src[c];
  }
}

void StreamingFeatureExtractor::reset() {
  windows_seen_ = 0;
  rings_.clear();
}

}  // namespace repro::control

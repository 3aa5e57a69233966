#include "runtime/flow_control.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace repro::runtime {

const char* overflow_policy_name(OverflowPolicy policy) {
  switch (policy) {
    case OverflowPolicy::kUnbounded: return "unbounded";
    case OverflowPolicy::kBlockUpstream: return "block";
    case OverflowPolicy::kDropNewest: return "drop";
  }
  return "?";
}

OverflowPolicy parse_overflow_policy(const std::string& name) {
  if (name == "unbounded") return OverflowPolicy::kUnbounded;
  if (name == "block") return OverflowPolicy::kBlockUpstream;
  if (name == "drop") return OverflowPolicy::kDropNewest;
  throw std::invalid_argument("parse_overflow_policy: unknown policy '" + name +
                              "' (use unbounded|block|drop)");
}

void FlowControlConfig::validate() const {
  if (bounded() && queue_capacity == 0) {
    throw std::invalid_argument(std::string("FlowControlConfig: policy ") +
                                overflow_policy_name(policy) +
                                " requires queue_capacity > 0");
  }
  if (!bounded() && queue_capacity != 0) {
    throw std::invalid_argument(
        "FlowControlConfig: queue_capacity set but policy is unbounded "
        "(set policy=block|drop, or capacity=0)");
  }
}

FlowControlConfig flow_config_from_flags(long long queue_capacity, const std::string& policy) {
  if (queue_capacity < 0) {
    throw std::invalid_argument("flow_config_from_flags: negative queue capacity " +
                                std::to_string(queue_capacity));
  }
  FlowControlConfig cfg;
  cfg.queue_capacity = static_cast<std::size_t>(queue_capacity);
  cfg.policy = parse_overflow_policy(policy);
  cfg.validate();
  return cfg;
}

const char* backend_kind_name(BackendKind backend) {
  switch (backend) {
    case BackendKind::kSim: return "sim";
    case BackendKind::kAsync: return "async";
  }
  return "?";
}

BackendKind parse_backend_kind(const std::string& name) {
  if (name == "sim") return BackendKind::kSim;
  if (name == "async") return BackendKind::kAsync;
  if (name == "rt") {
    throw std::invalid_argument(
        "parse_backend_kind: backend 'rt' (thread per worker) was removed; use async, "
        "the event-loop wall-clock backend");
  }
  throw std::invalid_argument("parse_backend_kind: unknown backend '" + name +
                              "' (use sim|async)");
}

const std::vector<std::string>& data_path_flag_names() {
  static const std::vector<std::string> names = {"queue-cap", "overflow-policy", "max-pending",
                                                 "batch-size", "backend"};
  return names;
}

const char* data_path_flag_usage() {
  return "  [--queue-cap=N --overflow-policy=unbounded|block|drop] [--max-pending=N]\n"
         "  [--batch-size=N] [--backend=sim|async]";
}

bool apply_data_path_flags(const common::Flags& flags, FlowControlConfig& flow,
                           std::size_t& max_spout_pending, std::size_t& batch_size,
                           BackendKind& backend) {
  try {
    if (flags.has("backend")) backend = parse_backend_kind(flags.get("backend"));
    if (flags.has("max-pending")) {
      long long pending = flags.get_int("max-pending", 0);
      if (pending < 0) {
        throw std::invalid_argument("flag --max-pending: negative value " +
                                    std::to_string(pending));
      }
      max_spout_pending = static_cast<std::size_t>(pending);
    }
    if (flags.has("queue-cap") || flags.has("overflow-policy")) {
      flow = flow_config_from_flags(flags.get_int("queue-cap", 0),
                                    flags.get("overflow-policy", "unbounded"));
    }
    if (flags.has("batch-size")) {
      long long batch = flags.get_int("batch-size", 1);
      if (batch < 1) {
        throw std::invalid_argument("flag --batch-size: must be >= 1, got " +
                                    std::to_string(batch));
      }
      batch_size = static_cast<std::size_t>(batch);
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return false;
  }
  return true;
}

bool apply_data_path_flags(const common::Flags& flags, FlowControlConfig& flow,
                           std::size_t& max_spout_pending, std::size_t& batch_size) {
  BackendKind ignored = BackendKind::kSim;
  return apply_data_path_flags(flags, flow, max_spout_pending, batch_size, ignored);
}

FlowControl::FlowControl(FlowControlConfig config, std::size_t task_count) : cfg_(config) {
  cfg_.validate();
  tasks_.reserve(task_count);
  for (std::size_t i = 0; i < task_count; ++i) tasks_.push_back(std::make_unique<TaskState>());
}

FlowControl::Admit FlowControl::admit(std::size_t task) const {
  if (!cfg_.bounded()) return Admit::kAccept;
  if (tasks_.at(task)->occupancy.load(std::memory_order_relaxed) < cfg_.queue_capacity) {
    return Admit::kAccept;
  }
  return cfg_.policy == OverflowPolicy::kBlockUpstream ? Admit::kBlock : Admit::kDrop;
}

std::size_t FlowControl::admit_n(std::size_t task, std::size_t n) const {
  if (!cfg_.bounded() || n == 0) return n;
  std::size_t occ = tasks_.at(task)->occupancy.load(std::memory_order_relaxed);
  std::size_t free = occ < cfg_.queue_capacity ? cfg_.queue_capacity - occ : 0;
  if (cfg_.policy == OverflowPolicy::kBlockUpstream) return n <= free ? n : 0;
  return n <= free ? n : free;
}

void FlowControl::acquire(std::size_t task) {
  if (!cfg_.bounded()) return;
  tasks_.at(task)->occupancy.fetch_add(1, std::memory_order_relaxed);
}

void FlowControl::acquire_n(std::size_t task, std::size_t n) {
  if (!cfg_.bounded() || n == 0) return;
  tasks_.at(task)->occupancy.fetch_add(n, std::memory_order_relaxed);
}

void FlowControl::release(std::size_t task) { release_n(task, 1); }

void FlowControl::release_n(std::size_t task, std::size_t n) {
  if (!cfg_.bounded() || n == 0) return;
  std::atomic<std::size_t>& occ = tasks_.at(task)->occupancy;
  std::size_t cur = occ.load(std::memory_order_relaxed);
  // Saturating decrement: a release beyond zero indicates an engine
  // accounting bug; clamping keeps the failure observable (occupancy
  // stuck low -> chaos conservation catches the mirror-image leak) rather
  // than wrapping to a huge value that would deadlock everything.
  while (true) {
    std::size_t next = cur >= n ? cur - n : 0;
    if (occ.compare_exchange_weak(cur, next, std::memory_order_relaxed)) break;
  }
  if (release_listener_) release_listener_(task, n);
}

void FlowControl::set_release_listener(
    std::function<void(std::size_t, std::size_t)> listener) {
  release_listener_ = std::move(listener);
}

std::size_t FlowControl::occupancy(std::size_t task) const {
  return tasks_.at(task)->occupancy.load(std::memory_order_relaxed);
}

void FlowControl::count_overflow_drop(std::size_t task) { count_overflow_drops(task, 1); }

void FlowControl::count_overflow_drops(std::size_t task, std::uint64_t n) {
  if (n == 0) return;
  TaskState& t = *tasks_.at(task);
  t.dropped_overflow.fetch_add(n, std::memory_order_relaxed);
  t.dropped_overflow_total.fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t FlowControl::dropped_overflow(std::size_t task) const {
  return tasks_.at(task)->dropped_overflow_total.load(std::memory_order_relaxed);
}

std::uint64_t FlowControl::total_dropped_overflow() const {
  std::uint64_t sum = 0;
  for (const auto& t : tasks_) sum += t->dropped_overflow_total.load(std::memory_order_relaxed);
  return sum;
}

std::uint64_t FlowControl::take_overflow_drops(std::size_t task) {
  return tasks_.at(task)->dropped_overflow.exchange(0, std::memory_order_relaxed);
}

void FlowControl::add_stall(std::size_t task, double seconds) {
  if (seconds <= 0.0) return;
  auto ns = static_cast<std::uint64_t>(std::llround(seconds * 1e9));
  TaskState& t = *tasks_.at(task);
  t.stall_ns.fetch_add(ns, std::memory_order_relaxed);
  t.stall_ns_total.fetch_add(ns, std::memory_order_relaxed);
}

double FlowControl::stall_seconds(std::size_t task) const {
  return static_cast<double>(tasks_.at(task)->stall_ns_total.load(std::memory_order_relaxed)) *
         1e-9;
}

double FlowControl::total_stall_seconds() const {
  std::uint64_t sum = 0;
  for (const auto& t : tasks_) sum += t->stall_ns_total.load(std::memory_order_relaxed);
  return static_cast<double>(sum) * 1e-9;
}

double FlowControl::take_stall(std::size_t task) {
  return static_cast<double>(tasks_.at(task)->stall_ns.exchange(0, std::memory_order_relaxed)) *
         1e-9;
}

}  // namespace repro::runtime

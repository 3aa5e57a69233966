#include "exp/chaos.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <thread>

#include "common/rng.hpp"
#include "dsps/topology.hpp"
#include "rt/async_engine.hpp"

namespace repro::exp {
namespace {

constexpr double kChaosWindow = 0.25;

/// Finite paced stream: values 0..limit-1 at a fixed rate, then dry.
class ChaosSpout final : public dsps::Spout {
 public:
  ChaosSpout(double rate, std::int64_t limit) : rate_(rate), limit_(limit) {}
  double next_delay(sim::SimTime) override { return 1.0 / rate_; }
  std::optional<dsps::Values> next(sim::SimTime) override {
    if (n_ >= limit_) return std::nullopt;
    return dsps::Values{n_++};
  }

 private:
  double rate_;
  std::int64_t limit_;
  std::int64_t n_ = 0;
};

class ChaosRelay final : public dsps::Bolt {
 public:
  void execute(const dsps::Tuple& in, dsps::OutputCollector& out) override {
    out.emit(in.values);
  }
  double tuple_cost(const dsps::Tuple&) const override { return 70e-6; }
};

/// Terminal stage: counts how often each sequence value arrives, shared
/// across sink tasks (atomics: the async mirror executes sinks concurrently).
class ChaosSink final : public dsps::Bolt {
 public:
  using Counts = std::vector<std::atomic<std::uint32_t>>;
  explicit ChaosSink(std::shared_ptr<Counts> counts) : counts_(std::move(counts)) {}
  void execute(const dsps::Tuple& in, dsps::OutputCollector&) override {
    auto seq = std::get<std::int64_t>(in.values.at(0));
    if (seq >= 0 && static_cast<std::size_t>(seq) < counts_->size()) {
      (*counts_)[static_cast<std::size_t>(seq)].fetch_add(1, std::memory_order_relaxed);
    }
  }
  double tuple_cost(const dsps::Tuple&) const override { return 50e-6; }

 private:
  std::shared_ptr<Counts> counts_;
};

struct BuiltChaos {
  dsps::Topology topo;
  /// DynamicRatio handles of the dynamic stages, in emission order
  /// (relay stages first, then the sink subscription if dynamic).
  std::vector<std::shared_ptr<dsps::DynamicRatio>> ratios;
  std::shared_ptr<ChaosSink::Counts> counts;
};

BuiltChaos build_chaos_topology(const ChaosSpec& spec) {
  BuiltChaos built;
  built.counts = std::make_shared<ChaosSink::Counts>(static_cast<std::size_t>(spec.tuple_limit));
  dsps::TopologyBuilder b("chaos-" + std::to_string(spec.seed));
  b.set_spout("src", [rate = spec.spout_rate, limit = spec.tuple_limit] {
    return std::make_unique<ChaosSpout>(rate, limit);
  });
  auto subscribe = [&built](dsps::BoltDeclarer& decl, const std::string& from, int grouping) {
    switch (grouping) {
      case 1: decl.fields_grouping(from, {0}); break;
      case 2: built.ratios.push_back(decl.dynamic_grouping(from)); break;
      default: decl.shuffle_grouping(from); break;
    }
  };
  std::string prev = "src";
  for (std::size_t s = 0; s < spec.stage_parallelism.size(); ++s) {
    std::string name = "relay" + std::to_string(s);
    auto decl = b.set_bolt(name, [] { return std::make_unique<ChaosRelay>(); },
                           spec.stage_parallelism[s]);
    subscribe(decl, prev, spec.stage_grouping[s]);
    prev = name;
  }
  auto sink = b.set_bolt("sink", [counts = built.counts] {
    return std::make_unique<ChaosSink>(counts);
  }, spec.sink_parallelism);
  subscribe(sink, prev, spec.sink_grouping);
  built.topo = b.build();
  return built;
}

}  // namespace

namespace {

/// Shared generator body. `shape` (optional) forces the cluster/data-path
/// fields from a ScenarioSpec *after* the shape draws, so the plain
/// seeded path keeps its historical RNG stream byte for byte.
ChaosSpec make_chaos_spec_impl(std::uint64_t seed, const ScenarioSpec* shape) {
  common::Pcg32 rng(seed * 0x9e3779b97f4a7c15ull + 0xc4a5, 0xc7a05);
  ChaosSpec spec;
  spec.seed = seed;

  spec.machines = 2 + rng.bounded(2);           // 2..3
  spec.workers_per_machine = 1 + rng.bounded(2);// 1..2
  if (shape != nullptr) {
    spec.machines = shape->machines;
    spec.workers_per_machine = shape->workers_per_machine;
    spec.flow = shape->flow;
    spec.batch_size = shape->batch_size;
  }
  std::size_t workers = spec.machines * spec.workers_per_machine;

  // Every 5th seed is a parity scenario: deterministic groupings only and
  // a small stream, so the crash-free projection can be mirrored on the
  // async backend at low wall-clock cost.
  bool parity = (seed % 5 == 0);

  double stream_time = parity ? 0.4 : rng.uniform(1.6, 3.0);
  spec.spout_rate = parity ? 1000.0 : rng.uniform(400.0, 1000.0);
  spec.tuple_limit = static_cast<std::int64_t>(spec.spout_rate * stream_time);

  std::size_t stages = 1 + rng.bounded(2);      // 1..2 relay stages
  auto pick_grouping = [&rng, parity]() -> int {
    if (parity) return 1;
    std::uint32_t r = rng.bounded(100);
    if (r < 35) return 0;       // shuffle
    if (r < 75) return 1;       // fields
    return 2;                   // dynamic
  };
  for (std::size_t s = 0; s < stages; ++s) {
    spec.stage_parallelism.push_back(2 + rng.bounded(3));  // 2..4
    spec.stage_grouping.push_back(pick_grouping());
  }
  spec.sink_parallelism = 1 + rng.bounded(2);   // 1..2
  spec.sink_grouping = parity ? 1 : (rng.bounded(2) == 0 ? 1 : 0);
  spec.parity_friendly = parity;

  spec.ack_timeout = rng.uniform(0.8, 1.6);
  spec.max_replays = 12;
  spec.duration = stream_time + 1.6;
  spec.drain = 2.0 * spec.ack_timeout + 1.5;

  // --- fault plan ------------------------------------------------------
  // Crash/restart pairs on distinct workers (at most workers-1 of them, so
  // a survivor always exists); every crashed worker restarts well before
  // the run ends, so recovery and replay have room to complete.
  // A forced single-worker shape has no survivor to crash onto; the plain
  // seeded path always draws >= 2 workers, so its stream is untouched.
  std::size_t n_crashes =
      workers < 2 ? 0
                  : 1 + rng.bounded(static_cast<std::uint32_t>(
                            std::min<std::size_t>(3, workers - 1)));
  std::vector<std::size_t> victims;
  for (std::size_t w = 0; w < workers; ++w) victims.push_back(w);
  for (std::size_t i = 0; i < n_crashes; ++i) {
    std::size_t j = i + rng.bounded(static_cast<std::uint32_t>(victims.size() - i));
    std::swap(victims[i], victims[j]);
  }
  for (std::size_t i = 0; i < n_crashes; ++i) {
    double at = rng.uniform(0.2, 0.55) * stream_time;
    double back = std::min(at + rng.uniform(0.3, 1.2), spec.duration - 0.2);
    spec.plan.crash(at, victims[i]);
    spec.plan.restart(back, victims[i]);
  }
  spec.has_crash = n_crashes > 0;

  // Soft faults, each cleared before the drain.
  std::size_t n_soft = rng.bounded(3);  // 0..2
  for (std::size_t i = 0; i < n_soft; ++i) {
    double at = rng.uniform(0.1, 0.5) * stream_time;
    double clear = std::min(at + rng.uniform(0.5, 1.5), spec.duration - 0.2);
    std::size_t w = rng.bounded(static_cast<std::uint32_t>(workers));
    switch (rng.bounded(4)) {
      case 0:
        spec.plan.slowdown(at, w, rng.uniform(2.0, 5.0));
        spec.plan.clear_slowdown(clear, w);
        break;
      case 1:
        spec.plan.drop(at, w, rng.uniform(0.05, 0.4));
        spec.plan.drop(clear, w, 0.0);
        spec.has_drop = true;
        break;
      case 2:
        spec.plan.stall(at, w, rng.uniform(0.2, 0.8));
        break;
      default: {
        if (spec.machines < 2) {  // no link to delay on a forced 1-machine shape
          spec.plan.stall(at, w, rng.uniform(0.2, 0.8));
          break;
        }
        std::size_t a = rng.bounded(static_cast<std::uint32_t>(spec.machines));
        std::size_t b = (a + 1) % spec.machines;
        spec.plan.link_delay(at, a, b, rng.uniform(0.005, 0.04));
        spec.plan.clear_link_delay(clear, a, b);
        break;
      }
    }
  }

  // Split-ratio schedule for dynamic stages.
  std::size_t dynamic_index = 0;
  auto schedule_ratios = [&](std::size_t parallelism) {
    std::size_t n_changes = 1 + rng.bounded(2);
    for (std::size_t c = 0; c < n_changes; ++c) {
      ChaosSpec::RatioChange rc;
      rc.at = rng.uniform(0.2, 0.8) * stream_time;
      rc.stage = dynamic_index;
      for (std::size_t p = 0; p < parallelism; ++p) rc.ratios.push_back(rng.uniform(0.2, 3.0));
      spec.ratio_changes.push_back(std::move(rc));
    }
    ++dynamic_index;
  };
  for (std::size_t s = 0; s < stages; ++s) {
    if (spec.stage_grouping[s] == 2) schedule_ratios(spec.stage_parallelism[s]);
  }
  if (spec.sink_grouping == 2) schedule_ratios(spec.sink_parallelism);
  std::sort(spec.ratio_changes.begin(), spec.ratio_changes.end(),
            [](const auto& a, const auto& b) { return a.at < b.at; });

  // --- elastic rescale events (invariant 6) ----------------------------
  // A separate RNG stream, so every draw above stays byte-identical seed
  // for seed. Sequential non-overlapping retire -> re-add pairs; targets
  // come from the non-victim tail of the crash shuffle, so a graceful
  // drain always finds an alive-and-active host even with every scheduled
  // crash outstanding (and at least one other non-victim survives the
  // retiree itself).
  {
    common::Pcg32 rrng(seed * 0x9e3779b97f4a7c15ull + 0xe15c, 0xe17);
    std::size_t spare = workers - n_crashes;
    if (workers >= 2 && spare >= 2 && rrng.bounded(100) < 70) {
      std::size_t n_rescales = 1 + rrng.bounded(2);  // 1..2 retire/re-add pairs
      double at = rrng.uniform(0.15, 0.35) * stream_time;
      for (std::size_t i = 0; i < n_rescales && at < spec.duration - 0.4; ++i) {
        std::size_t target =
            victims[n_crashes + rrng.bounded(static_cast<std::uint32_t>(spare))];
        double back = at + rrng.uniform(0.2, 0.6);
        spec.rescale_events.push_back({at, target, true});
        spec.rescale_events.push_back({back, target, false});
        at = back + rrng.uniform(0.1, 0.4) * stream_time;
      }
      spec.has_rescale = !spec.rescale_events.empty();
    }
  }
  return spec;
}

}  // namespace

ChaosSpec make_chaos_spec(std::uint64_t seed) { return make_chaos_spec_impl(seed, nullptr); }

ChaosSpec make_chaos_spec(const ScenarioSpec& scenario, std::uint64_t seed) {
  scenario.validate();
  return make_chaos_spec_impl(seed, &scenario);
}

ChaosReport run_chaos_sim(const ChaosSpec& spec, bool include_faults) {
  BuiltChaos built = build_chaos_topology(spec);
  dsps::ClusterConfig cfg;
  cfg.machines = spec.machines;
  cfg.workers_per_machine = spec.workers_per_machine;
  cfg.seed = spec.seed * 2654435761ull + 13;  // engine streams decoupled from the generator
  cfg.window_seconds = kChaosWindow;
  cfg.ack_timeout = spec.ack_timeout;
  cfg.replay_on_failure = true;
  cfg.max_replays = spec.max_replays;
  cfg.gc_interval_mean = 0.0;  // the plan supplies its own stalls
  cfg.flow = spec.flow;
  cfg.batch_size = spec.batch_size;
  dsps::Engine engine(built.topo, cfg);

  ChaosReport report;
  engine.set_control_callback(kChaosWindow, [&report](dsps::Engine& e) {
    if (report.window_audit.empty()) report.window_audit = e.placement_audit();
  });
  if (include_faults) engine.apply_fault_plan(spec.plan);

  // Merge the split-ratio schedule and the rescale events into one
  // timeline (both lists are sorted by `at`). Rescale events run on both
  // projections: graceful migration is tuple-conserving, so the crash-free
  // projection's per-task executed counts stay placement-independent and
  // the backend parity checks keep holding.
  {
    std::size_t ri = 0, ei = 0;
    while (ri < spec.ratio_changes.size() || ei < spec.rescale_events.size()) {
      bool ratio_next =
          ei >= spec.rescale_events.size() ||
          (ri < spec.ratio_changes.size() &&
           spec.ratio_changes[ri].at <= spec.rescale_events[ei].at);
      if (ratio_next) {
        engine.run_until(spec.ratio_changes[ri].at);
        built.ratios.at(spec.ratio_changes[ri].stage)->set_ratios(spec.ratio_changes[ri].ratios);
        ++ri;
      } else {
        const auto& ev = spec.rescale_events[ei];
        engine.run_until(ev.at);
        if (ev.retire) {
          engine.retire_worker(ev.worker);
        } else {
          engine.add_worker(ev.worker);
        }
        ++ei;
      }
    }
  }
  engine.run_until(spec.duration + spec.drain);

  report.totals = engine.totals();
  report.pending_end = engine.pending_roots();
  std::size_t task_count = engine.history().empty() ? 0 : engine.history().front().tasks.size();
  report.executed_per_task.assign(task_count, 0);
  for (const auto& w : engine.history()) {
    for (std::size_t t = 0; t < w.tasks.size(); ++t) {
      report.executed_per_task[t] += w.tasks[t].executed;
      report.peak_queue_len = std::max(report.peak_queue_len, w.tasks[t].queue_len);
    }
  }
  report.parked_end = engine.parked_tuples();
  report.stall_seconds = engine.flow_control()->total_stall_seconds();
  for (std::size_t t = 0; t < task_count; ++t) {
    report.residual_queued += engine.queue_length_of_task(t);
  }
  report.placement_audit = engine.placement_audit();
  for (std::size_t w = 0; w < engine.worker_count(); ++w) {
    report.alive_end.push_back(engine.worker_alive(w));
    report.active_end.push_back(engine.worker_active(w));
  }
  for (std::size_t i = 0; i < built.counts->size(); ++i) {
    std::uint32_t c = (*built.counts)[i].load(std::memory_order_relaxed);
    if (c == 0) ++report.missing_values;
    if (c > 1) ++report.duplicate_values;
  }
  return report;
}

namespace {

struct MirrorResult {
  std::vector<std::uint64_t> executed_per_task;
  rt::RtTotals totals;
};

/// Crash-free wall-clock mirror: run until the finite stream fully drains
/// (every value executed once per stage), bounded by a safety net.
MirrorResult run_chaos_mirror(const ChaosSpec& spec, rt::AsyncConfig cfg) {
  BuiltChaos built = build_chaos_topology(spec);
  cfg.workers = spec.machines * spec.workers_per_machine;
  cfg.window_seconds = 0.1;
  cfg.batch_size = spec.batch_size;
  rt::AsyncEngine engine(built.topo, cfg);
  std::uint64_t expected = static_cast<std::uint64_t>(spec.tuple_limit) *
                           (spec.stage_parallelism.size() + 1);
  engine.start();
  // Replay the scripted rescale events on the wall clock, so the live
  // backends exercise the same graceful retire -> re-add sequence the sim
  // run performs (executed counts stay placement-independent).
  std::thread rescaler;
  if (!spec.rescale_events.empty()) {
    rescaler = std::thread([&engine, &spec] {
      auto t0 = std::chrono::steady_clock::now();
      for (const auto& ev : spec.rescale_events) {
        std::this_thread::sleep_until(
            t0 + std::chrono::microseconds(static_cast<long long>(ev.at * 1e6)));
        if (ev.retire) {
          engine.retire_worker(ev.worker);
        } else {
          engine.add_worker(ev.worker);
        }
      }
    });
  }
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    if (engine.totals().executed >= expected) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (rescaler.joinable()) rescaler.join();
  engine.stop();
  return {engine.executed_per_task(), engine.totals()};
}

}  // namespace

std::vector<std::uint64_t> run_chaos_async(const ChaosSpec& spec) {
  return run_chaos_mirror(spec, rt::AsyncConfig{}).executed_per_task;
}

rt::RtTotals run_chaos_async_bounded(const ChaosSpec& spec) {
  rt::AsyncConfig cfg;
  cfg.flow = spec.flow;
  // Long ack timeout: a TSan-slowed drain must not trigger replays, which
  // would push `executed` past the exact finite-stream expectation the
  // invariant checks against.
  cfg.ack_timeout = 30.0;
  return run_chaos_mirror(spec, cfg).totals;
}

std::string check_chaos_invariants(const ChaosSpec& spec, const ChaosReport& r) {
  const dsps::EngineTotals& t = r.totals;
  std::ostringstream out;

  // 1. Tuple conservation.
  if (r.pending_end != 0) {
    out << "conservation: " << r.pending_end << " roots still pending after the drain";
    return out.str();
  }
  if (t.roots_emitted != t.acked + t.failed) {
    out << "conservation: roots_emitted=" << t.roots_emitted << " != acked=" << t.acked
        << " + failed=" << t.failed;
    return out.str();
  }
  if (r.residual_queued != 0) {
    out << "conservation: " << r.residual_queued << " tuples still queued after the drain";
    return out.str();
  }
  if (t.tuples_delivered !=
      t.tuples_executed + t.tuples_dropped + t.tuples_lost + t.tuples_dropped_overflow) {
    out << "conservation: delivered=" << t.tuples_delivered
        << " != executed=" << t.tuples_executed << " + dropped=" << t.tuples_dropped
        << " + lost=" << t.tuples_lost << " + dropped_overflow=" << t.tuples_dropped_overflow;
    return out.str();
  }

  // 2. Replay completeness (at-least-once). Drop faults can exhaust the
  // replay budget (each attempt re-rolls the drop dice); crashes cannot,
  // because every crashed worker restarts and the executor set heals.
  // Overflow shedding (kDropNewest) behaves like a drop fault here: a
  // replayed root can be shed again at a still-saturated queue.
  if (spec.has_drop || spec.flow.policy == runtime::OverflowPolicy::kDropNewest) {
    if (r.missing_values > t.replays_exhausted) {
      out << "replay: " << r.missing_values << " values missing at the sinks but only "
          << t.replays_exhausted << " roots exhausted their replay budget";
      return out.str();
    }
  } else if (r.missing_values != 0) {
    out << "replay: " << r.missing_values
        << " values missing at the sinks with no drop fault scheduled";
    return out.str();
  }

  // 3. Routing-table consistency, at every window boundary and at the end.
  if (!r.window_audit.empty()) return "routing (window boundary): " + r.window_audit;
  if (!r.placement_audit.empty()) return "routing (final): " + r.placement_audit;

  // 4. Recovery: the plan restarts every crash, so the run ends healed.
  if (spec.has_crash && t.worker_crashes == 0) {
    return "recovery: plan schedules crashes but none was applied";
  }
  if (t.worker_crashes != t.worker_restarts) {
    out << "recovery: " << t.worker_crashes << " crashes vs " << t.worker_restarts
        << " restarts";
    return out.str();
  }
  for (std::size_t w = 0; w < r.alive_end.size(); ++w) {
    if (!r.alive_end[w]) {
      out << "recovery: worker " << w << " still dead after the run";
      return out.str();
    }
  }

  // 5. Bounded data path: backpressure must not wedge the run, losses
  // must be accounted, and the admission bound must be observable.
  if (spec.flow.bounded()) {
    if (r.parked_end != 0) {
      out << "bounded: " << r.parked_end
          << " tuples still parked at emit sites after the drain (backpressure wedged)";
      return out.str();
    }
    if (r.peak_queue_len > spec.flow.queue_capacity) {
      out << "bounded: peak task queue depth " << r.peak_queue_len << " exceeds capacity "
          << spec.flow.queue_capacity;
      return out.str();
    }
    if (spec.flow.policy == runtime::OverflowPolicy::kBlockUpstream &&
        t.tuples_dropped_overflow != 0) {
      out << "bounded: kBlockUpstream shed " << t.tuples_dropped_overflow
          << " tuples (must be lossless)";
      return out.str();
    }
  } else if (t.tuples_dropped_overflow != 0 || r.parked_end != 0) {
    out << "bounded: unbounded run reports dropped_overflow=" << t.tuples_dropped_overflow
        << " parked=" << r.parked_end;
    return out.str();
  }

  // 6. Elastic rescale: the scripted retires all happened, each was paired
  // with a re-add, nothing rescaled outside the script, and the pool ends
  // fully active. Checks 1-4 above already ran against the same report, so
  // a migration sequence that broke conservation / routing / recovery is
  // caught there with its own diagnostic.
  std::size_t scripted_retires = 0;
  for (const auto& ev : spec.rescale_events) scripted_retires += ev.retire ? 1 : 0;
  if (spec.has_rescale) {
    if (t.worker_retires != scripted_retires) {
      out << "rescale: " << scripted_retires << " retires scripted but " << t.worker_retires
          << " applied";
      return out.str();
    }
    if (t.worker_adds != t.worker_retires) {
      out << "rescale: " << t.worker_retires << " retires vs " << t.worker_adds
          << " re-adds (every drain must be paired)";
      return out.str();
    }
  } else if (t.worker_retires != 0 || t.worker_adds != 0 || t.task_migrations != 0) {
    out << "rescale: unscripted rescale activity (retires=" << t.worker_retires
        << " adds=" << t.worker_adds << " migrations=" << t.task_migrations << ")";
    return out.str();
  }
  for (std::size_t w = 0; w < r.active_end.size(); ++w) {
    if (!r.active_end[w]) {
      out << "rescale: worker " << w << " still retired after the run";
      return out.str();
    }
  }
  return {};
}

}  // namespace repro::exp

// sim-control: the registered t7-bakeoff course (rate surge, slowdown
// ramp, crash/restart; replay on) on the sim backend under the drnn
// controller. The only workload where nn, control and the
// single-threaded sim engine do the work.
#include <algorithm>
#include <memory>

#include "control/controller.hpp"
#include "exp/scenarios.hpp"
#include "exp/scenario_spec.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace repro;

constexpr const char* kCourse = "t7-bakeoff";
constexpr int kSetupReps = 4;
constexpr std::size_t kMinEvals = 4;  ///< fewest evaluations a run makes
constexpr int kPredictCalls = 50;  ///< per active worker, after each traced evaluation
constexpr std::size_t kSpanCapacity = std::size_t{1} << 16;

/// Borrows a controller and runs each of its rounds inside a span. Attach
/// wires the inner controller first, then this wrapper's periodic hook
/// replaces the inner one at the same interval, so the inner arm sees
/// exactly the rounds it would have run on its own.
class TracedController final : public control::Controller {
 public:
  TracedController(control::Controller& inner, SpanLog& spans, std::uint32_t run)
      : control::Controller(inner.control_interval()), inner_(inner), spans_(spans), run_(run) {}

  std::string name() const override { return inner_.name(); }
  const std::vector<std::uint32_t>& round_spans() const { return round_spans_; }

 protected:
  void on_attach(runtime::ControlSurface& surface) override { inner_.attach(surface); }
  void round(runtime::ControlSurface& surface) override {
    const std::uint32_t span =
        spans_.begin("control.round", SpanLog::kNoParent, run_, round_spans_.size());
    inner_.control_round(surface);
    spans_.end(span);
    round_spans_.push_back(span);
  }

 private:
  control::Controller& inner_;
  SpanLog& spans_;
  std::uint32_t run_;
  std::vector<std::uint32_t> round_spans_;
};

struct Eval {
  double wall_s = 0.0;
  SimTotalsRow row;
  std::vector<double> round_ms;  ///< ControlAction::round_seconds of this evaluation
  std::size_t rounds = 0;
  std::size_t actuations = 0;
  double worst_p99_ms = 0.0;     ///< sim time
  double complete_latency_ms = 0.0;
  std::uint64_t pending_peak = 0;
  std::size_t queue_peak = 0;
  double route_skew = 0.0;
  std::vector<std::size_t> workers;  ///< workers that executed tuples
};

Eval evaluate(const exp::ScenarioSpec& spec, control::PredictiveController& ctl,
              std::uint64_t spout_cap, SpanLog* spans, std::uint32_t run) {
  const std::size_t first_action = ctl.actions().size();
  std::unique_ptr<TracedController> traced;
  control::Controller* arm = &ctl;
  std::uint32_t eval_span = SpanLog::kFull;
  if (spans != nullptr) {
    traced = std::make_unique<TracedController>(ctl, *spans, run);
    arm = traced.get();
    eval_span = spans->begin("sim.evaluate", SpanLog::kNoParent, run, run);
  }

  const std::int64_t t0 = now_ns();
  const exp::ScenarioRunResult result = exp::run_scenario_with(spec, arm);
  Eval e;
  e.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  if (spans != nullptr) {
    spans->end(eval_span);
    for (std::uint32_t s : traced->round_spans()) spans->set_parent(s, eval_span);
  }

  const dsps::EngineTotals& t = result.totals;
  e.row.roots = t.roots_emitted;
  e.row.acked = t.acked;
  e.row.failed = t.failed;
  e.row.shed = t.tuples_dropped_overflow;
  e.row.executed = t.tuples_executed;
  e.row.max_spout_pending = spout_cap;
  e.rounds = ctl.rounds();
  for (std::size_t i = first_action; i < ctl.actions().size(); ++i) {
    const control::ControlAction& a = ctl.actions()[i];
    e.round_ms.push_back(a.round_seconds * 1e3);
    if (!a.ratios.empty()) ++e.actuations;
  }

  double lat_sum = 0.0;
  double lat_n = 0.0;
  std::vector<std::uint64_t> counter_exec;
  for (const dsps::WindowSample& w : result.history) {
    e.worst_p99_ms = std::max(e.worst_p99_ms, w.topology.p99_complete_latency * 1e3);
    lat_sum += w.topology.avg_complete_latency * static_cast<double>(w.topology.acked);
    lat_n += static_cast<double>(w.topology.acked);
    e.pending_peak = std::max<std::uint64_t>(e.pending_peak, w.topology.pending);
    for (const dsps::TaskWindowStats& ts : w.tasks) {
      e.queue_peak = std::max(e.queue_peak, ts.queue_len);
      if (ts.component != "counter") continue;
      if (counter_exec.size() <= ts.comp_index) counter_exec.resize(ts.comp_index + 1, 0);
      counter_exec[ts.comp_index] += ts.executed;
    }
  }
  e.complete_latency_ms = lat_n > 0.0 ? lat_sum / lat_n * 1e3 : 0.0;
  if (!counter_exec.empty()) {
    double sum = 0.0;
    double mx = 0.0;
    for (std::uint64_t c : counter_exec) {
      sum += static_cast<double>(c);
      mx = std::max(mx, static_cast<double>(c));
    }
    e.route_skew = sum > 0.0 ? mx / (sum / static_cast<double>(counter_exec.size())) : 0.0;
  }
  e.workers = exp::active_workers(result.history);
  return e;
}

/// Mean wall microseconds of PerformancePredictor::predict_next(worker)
/// on the fitted predictor, streamed through the evaluation just run.
double time_predictions(control::PredictiveController& ctl,
                        const std::vector<std::size_t>& workers, SpanLog& spans,
                        std::uint32_t run) {
  if (workers.empty()) return 0.0;
  control::PerformancePredictor& predictor = ctl.predictor();
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kPredictCalls; ++i) {
    for (std::size_t w : workers) {
      const std::uint32_t span = spans.begin("nn.predict", SpanLog::kNoParent, run, w);
      (void)predictor.predict_next(w);  // virtual call into the library: not elided
      spans.end(span);
    }
  }
  const double calls = static_cast<double>(kPredictCalls) * static_cast<double>(workers.size());
  return static_cast<double>(now_ns() - t0) * 1e-3 / calls;
}

struct Phase {
  std::vector<Eval> evals;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> predict_us;
  std::uint64_t executed = 0;

  /// The evaluation is single-threaded and deterministic, but on a shared
  /// host whole stretches of evaluations run up to ~2x slower. Throughput
  /// therefore comes from the fastest quarter of the evaluations: on a
  /// shared 4-vCPU VM it spread 2-5% across runs where the median over all
  /// evaluations spread 19-32%.
  std::vector<const Eval*> fastest() const {
    std::vector<double> wall;
    for (const Eval& e : evals) wall.push_back(e.wall_s);
    std::vector<const Eval*> keep;
    for (std::size_t i : fastest_quarter(wall)) keep.push_back(&evals[i]);
    return keep;
  }
  /// Sim tuples executed per wall second over the fastest evaluations.
  double throughput() const {
    double executed_sum = 0.0;
    double wall_sum = 0.0;
    for (const Eval* e : fastest()) {
      executed_sum += static_cast<double>(e->row.executed);
      wall_sum += e->wall_s;
    }
    return executed_sum / wall_sum;
  }
  /// Round-time percentile in ms. Every evaluation runs the same rounds
  /// (the gate holds the executed tuples equal), so each round's time is
  /// the fastest-quarter mean of that round over the evaluations, and the
  /// percentile is taken over rounds.
  double round_ms(double q) const {
    std::size_t rounds = evals.front().round_ms.size();
    for (const Eval& e : evals) rounds = std::min(rounds, e.round_ms.size());
    std::vector<double> per_round;
    for (std::size_t r = 0; r < rounds; ++r) {
      std::vector<double> times;
      for (const Eval& e : evals) times.push_back(e.round_ms[r]);
      per_round.push_back(fastest_quarter_mean(times));
    }
    return exact_percentile(per_round, q);
  }
};

/// Evaluate the course back to back for at least `seconds` of wall time,
/// each evaluation on the next CPU.
Phase run_phase(const exp::ScenarioSpec& spec, control::PredictiveController& ctl,
                std::uint64_t spout_cap, double seconds, const CpuRotation& rotation,
                SpanLog* spans, std::uint32_t first_run) {
  Phase p;
  const double cpu0 = process_cpu_seconds();
  while (p.evals.size() < kMinEvals || p.wall_s < seconds) {
    const auto run = static_cast<std::uint32_t>(first_run + p.evals.size());
    rotation.pin(run);
    Eval e = evaluate(spec, ctl, spout_cap, spans, run);
    p.wall_s += e.wall_s;
    p.executed += e.row.executed;
    if (spans != nullptr) p.predict_us.push_back(time_predictions(ctl, e.workers, *spans, run));
    p.evals.push_back(std::move(e));
  }
  p.cpu_s = process_cpu_seconds() - cpu0;
  return p;
}

}  // namespace

RunResult run_sim_control(const RunOptions& o) {
  const exp::ScenarioSpec registered = exp::ScenarioRegistry::instance().get(kCourse);
  exp::ScenarioSpec spec = registered;
  // The workload seed reaches only the generators (the spouts' streams).
  for (exp::TopologySpec& t : spec.topologies) t.seed_offset = o.seed;
  spec.validate();
  std::uint64_t spout_tasks = 0;
  for (const dsps::SpoutSpec& s : exp::build_scenario_app(spec).topology.spouts) {
    spout_tasks += s.parallelism;
  }
  const std::uint64_t spout_cap = spec.max_spout_pending * spout_tasks;

  std::unique_ptr<SpanLog> spans;
  if (o.trace) spans = std::make_unique<SpanLog>(kSpanCapacity);

  // Setup: the profiling trace + DRNN fit inside make_scenario_controller,
  // on the registered course as is. The fit's cost follows the streams of
  // its profiling trace (one seed's set-up took 1.7x another's), so the
  // workload seed stays out of it and every run sets up the same work.
  const CpuRotation rotation;
  std::vector<double> setup;
  std::unique_ptr<control::Controller> owned;
  for (int r = 0; r < kSetupReps; ++r) {
    rotation.pin(static_cast<std::size_t>(r));
    const std::uint32_t span =
        spans ? spans->begin("control.setup", SpanLog::kNoParent, 0, r) : SpanLog::kFull;
    const std::int64_t t0 = now_ns();
    owned = exp::make_scenario_controller(registered);
    setup.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    if (spans) spans->end(span);
  }
  auto* ctl = dynamic_cast<control::PredictiveController*>(owned.get());
  RunResult res;
  if (ctl == nullptr) {
    res.violations.push_back(std::string(kCourse) + " did not build a predictive controller");
    return res;
  }

  const Phase plain = run_phase(spec, *ctl, spout_cap, o.seconds, rotation, nullptr, 0);
  std::vector<SimTotalsRow> rows;
  for (const Eval& e : plain.evals) rows.push_back(e.row);

  Report& e2e = res.end_to_end;
  e2e.add("throughput_tps", plain.throughput(), "1/s");
  e2e.add("latency_p50_ms", plain.round_ms(0.50), "ms");
  e2e.add("latency_p95_ms", plain.round_ms(0.95), "ms");
  e2e.add("setup_s", fastest_quarter_mean(setup), "s");
  e2e.add("peak_rss_mb", peak_rss_mb(), "MB");

  const Eval& first = plain.evals.front();
  Report& d = res.diagnostics;
  d.add("evaluations", static_cast<double>(plain.evals.size()), "count");
  d.add("fast_evaluations", static_cast<double>(plain.fastest().size()), "count");
  std::vector<double> eval_s;
  for (const Eval& ev : plain.evals) eval_s.push_back(ev.wall_s);
  d.add("sim.eval_s_min", exact_percentile(eval_s, 0.0), "s");
  d.add("sim.eval_s_max", exact_percentile(eval_s, 1.0), "s");  for (std::size_t i = 0; i < setup.size(); ++i) {
    d.add("setup_s." + std::to_string(i), setup[i], "s");
  }
  d.add("sim.roots", static_cast<double>(first.row.roots), "count");
  d.add("sim.failed_roots", static_cast<double>(first.row.failed), "count");

  if (o.trace) {
    const Phase traced = run_phase(spec, *ctl, spout_cap, o.seconds, rotation, spans.get(),
                                   static_cast<std::uint32_t>(plain.evals.size()));
    for (const Eval& e : traced.evals) rows.push_back(e.row);

    // Sim-time figures (unit sim_ms) are deterministic per seed.
    Report& l = res.per_layer;
    l.add("nn.predict_us", exact_percentile(traced.predict_us, 0.5), "us");
    l.add("sim.eval_s", exact_percentile(eval_s, 0.5), "s");
    l.add("control.worst_p99_ms", first.worst_p99_ms, "sim_ms");
    l.add("dsps.complete_latency_ms", first.complete_latency_ms, "sim_ms");
    l.add("dsps.pending_peak", static_cast<double>(first.pending_peak), "count");
    l.add("runtime.queue_peak", static_cast<double>(first.queue_peak), "count");
    l.add("runtime.route_skew", first.route_skew, "ratio");
    // The sim engine has no event loop: no wakeups, steals or suspends.
    for (const char* name : {"rt.wakeups_per_ktuple", "rt.suspends_per_ktuple",
                             "rt.steals_per_ktuple"}) {
      l.add(name, 0.0, "1/ktuple");
    }
    l.add("rt.spurious_wakeup_ratio", 0.0, "ratio");
    l.add("rt.ready_peak", 0.0, "count");
    l.add("cpu_us_per_tuple", plain.cpu_s / static_cast<double>(plain.executed) * 1e6, "us");
    l.add("tail.boundary_share", 0.0, "ratio");
    l.add("control.rounds", static_cast<double>(first.rounds), "count");
    l.add("control.actuations", static_cast<double>(first.actuations), "count");
    l.add("sim.tuples_executed", static_cast<double>(first.row.executed), "count");
    l.add("trace.overhead_p50_ms", traced.round_ms(0.5) - plain.round_ms(0.5), "ms");
    l.add("trace.overhead_tps", traced.throughput() - plain.throughput(), "1/s");

    add_span_summary(*spans, d);
    if (!o.trace_out.empty() && !spans->write_jsonl(o.trace_out, o.context_json)) {
      res.violations.push_back("cannot write span file " + o.trace_out);
    }
  }

  for (const std::string& v : check_sim(rows)) res.violations.push_back(v);
  res.attempted = rows.size();
  res.failed = 0;
  return res;
}

}  // namespace perfbench

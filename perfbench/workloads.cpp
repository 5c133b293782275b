#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <utility>

#include "analysis/experiment.hpp"
#include "core/checkpoint.hpp"
#include "core/params.hpp"
#include "core/protocol.hpp"
#include "core/runner.hpp"
#include "graph/generators.hpp"
#include "graph/independence.hpp"
#include "obs/telemetry.hpp"
#include "radio/engine.hpp"
#include "radio/wakeup.hpp"
#include "support/rng.hpp"

namespace urn::perfbench {
namespace {

constexpr double kRadius = 1.5;  // the UDG radius of experiments E2/E3

/// Every workload runs the practical constants scaled by 1.5.  At x1 about
/// one n = 256 trial in 1500 colours two neighbours alike (the "price of
/// the practical constants" EXPERIMENTS.md records under E1, where x1.5
/// removes it).  That is rare for an experiment, but one evaluation of the
/// benchmark runs a few thousand trials, and any improper coloring fails
/// its run.
constexpr double kConstantScale = 1.5;

// ---- per-layer metric table ------------------------------------------------

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in BENCHMARK.json order.  Each traced pass
/// prints all of them; a layer the workload never calls reads 0.
constexpr LayerMetric kLayerMetrics[] = {
    {"graph.build_s", "s"},
    {"graph.kappa_s", "s"},
    {"graph.edges", "count"},
    {"graph.max_closed_degree", "count"},
    {"graph.kappa2", "count"},
    {"radio.engine_init_s", "s"},
    {"radio.run_s", "s"},
    {"radio.ns_per_active_node_slot", "ns"},
    {"radio.slots", "count"},
    {"radio.active_node_slots", "count"},
    {"radio.transmissions", "count"},
    {"radio.edge_visits", "count"},
    {"radio.deliveries", "count"},
    {"radio.collisions", "count"},
    {"radio.decisions", "count"},
    {"radio.delivery_ratio", "ratio"},
    {"radio.active_share", "ratio"},
    {"radio.edge_visits_per_tx", "ratio"},
    {"core.nodes_init_s", "s"},
    {"core.harvest_s", "s"},
    {"core.max_color", "count"},
    {"core.leaders", "count"},
    {"core.resets", "count"},
    {"core.latency_mean_slots", "slots"},
    {"core.latency_max_slots", "slots"},
    {"obs.monitor_config_s", "s"},
    {"obs.traced_run_s", "s"},
    {"obs.overhead_ratio", "ratio"},
    {"obs.events", "count"},
    {"obs.bin_bytes", "bytes"},
    {"obs.ns_per_event", "ns"},
    {"obs.monitor_violations", "count"},
    {"exec.busy_s", "s"},
    {"exec.wait_s", "s"},
    {"exec.chunks", "count"},
    {"exec.efficiency", "ratio"},
    {"analysis.trials", "count"},
    {"analysis.valid", "count"},
    {"trace_overhead", "ratio"},
};

using Layers = std::map<std::string, double>;

[[nodiscard]] double ratio(double num, double den) {
  return den != 0.0 ? num / den : 0.0;
}

/// Emit every per-layer metric; the simulated counts (everything not
/// measured in time) also go into the determinism fingerprint.
void emit_layers(Report& report, const Layers& layers) {
  for (const auto& [name, value] : layers) {
    const bool known = std::any_of(
        std::begin(kLayerMetrics), std::end(kLayerMetrics),
        [&](const LayerMetric& m) { return name == m.name; });
    if (!known) report.reject("unlisted per-layer metric " + name);
  }
  for (const LayerMetric& m : kLayerMetrics) {
    const auto it = layers.find(m.name);
    const double value = it != layers.end() ? it->second : 0.0;
    report.metric(m.name, value, m.unit);
    const std::string unit = m.unit;
    if (unit == "count" || unit == "slots" || unit == "bytes") {
      report.count(m.name, value);
    }
  }
}

/// One timed op: the deployment it ran on and its wall seconds.
struct OpTime {
  std::size_t deployment = 0;
  double seconds = 0.0;
};

/// Time ops round-robin over the deployments: one full round, then on
/// until `seconds` have passed.  `op(k)` returns its own wall time, so
/// the output checks it runs stay untimed.
template <typename Op>
[[nodiscard]] std::vector<OpTime> timed_rounds(double seconds,
                                               std::size_t deployments,
                                               Op&& op) {
  std::vector<OpTime> ops;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < deployments || seconds_since(t0) < seconds;
       ++i) {
    const std::size_t k = i % deployments;
    ops.push_back({k, op(k)});
  }
  return ops;
}

/// Median wall seconds of the ops on deployment `k`.
[[nodiscard]] double median_of(const std::vector<OpTime>& ops,
                               std::size_t k) {
  std::vector<double> times;
  for (const OpTime& op : ops) {
    if (op.deployment == k) times.push_back(op.seconds);
  }
  return samples(times).median();
}

/// The end-to-end metrics of an untraced run.  active_node_slots_per_s
/// is the median over ops of the op's deployment's active node-slots
/// divided by the op's time.  run_p50_s, the median op time, is printed
/// but not a gated metric: it scales with the seed's deployments (work per
/// run varies by ~8 % IQR across seeds), which the normalized rate does
/// not.
void emit_end_to_end(Report& report, const std::vector<double>& setup_times,
                     const std::vector<OpTime>& ops,
                     const std::vector<std::uint64_t>& active) {
  std::vector<double> times;
  std::vector<double> rates;
  for (const OpTime& op : ops) {
    times.push_back(op.seconds);
    rates.push_back(
        ratio(static_cast<double>(active[op.deployment]), op.seconds));
  }
  const Samples setup = samples(setup_times);
  const Samples run = samples(times);
  const Samples rate = samples(rates);
  report.metric("setup_s", setup.median(), "s");
  report.metric("active_node_slots_per_s", rate.median(), "1/s");
  report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
  const auto spread = [](const char* name, const char* what,
                         const Samples& x) {
    std::printf("  %s: median of %zu %s (p25 %.6g, p75 %.6g)\n", name,
                x.count(), what, x.percentile(25.0), x.percentile(75.0));
  };
  std::printf("  %-32s %-14s s\n", "run_p50_s",
              json_number(run.median()).c_str());
  spread("setup_s", "set-ups", setup);
  spread("run_p50_s", "ops", run);
  spread("active_node_slots_per_s", "ops", rate);
}

// ---- one coloring run, split into its public calls -------------------------

/// The engine probe's counters (obs::telemetry::EngineProbe names).
struct EngineCounts {
  std::uint64_t slots = 0;
  std::uint64_t active = 0;  ///< Σ over slots of live awake nodes
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t collisions = 0;
  std::uint64_t decisions = 0;

  bool operator==(const EngineCounts&) const = default;
  EngineCounts& operator+=(const EngineCounts& o) {
    slots += o.slots;
    active += o.active;
    transmissions += o.transmissions;
    deliveries += o.deliveries;
    collisions += o.collisions;
    decisions += o.decisions;
    return *this;
  }
};

[[nodiscard]] EngineCounts read_counts(obs::telemetry::Registry& reg) {
  EngineCounts c;
  c.slots = reg.counter("engine.slots").value();
  c.active = reg.counter("engine.node_slots").value();
  c.transmissions = reg.counter("engine.transmissions").value();
  c.deliveries = reg.counter("engine.deliveries").value();
  c.collisions = reg.counter("engine.collisions").value();
  c.decisions = reg.counter("engine.decisions").value();
  return c;
}

/// What `core::run_coloring` does, one public call at a time, on the
/// probed untraced engine (the same `batch_slots` path as the op).
struct SplitRun {
  core::RunResult result;
  EngineCounts counts;
  double nodes_init_s = 0.0;
  double engine_init_s = 0.0;
  double run_s = 0.0;
  double harvest_s = 0.0;
  double op_s = 0.0;
};

[[nodiscard]] SplitRun run_split(const graph::Graph& g,
                                 const core::Params& params,
                                 const radio::WakeSchedule& schedule,
                                 std::uint64_t seed, obs::SpanSink* spans) {
  using Engine = radio::Engine<core::ColoringNode, obs::NullSink,
                               obs::telemetry::EngineProbe>;
  SplitRun out;
  obs::telemetry::Registry reg;
  {
    Span op(spans, "op.split", &out.op_s);
    obs::telemetry::EngineProbe probe(reg);
    std::vector<core::ColoringNode> nodes;
    {
      Span s(spans, "core.nodes_init", &out.nodes_init_s);
      nodes.reserve(g.num_nodes());
      for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
        nodes.emplace_back(&params, v);
      }
    }
    std::optional<Engine> engine;
    {
      Span s(spans, "radio.engine_init", &out.engine_init_s);
      engine.emplace(g, schedule, std::move(nodes), seed);
      engine->set_telemetry(&probe);
    }
    radio::RunStats stats;
    {
      Span s(spans, "radio.run", &out.run_s);
      stats = engine->run(core::default_slot_budget(params, schedule));
    }
    {
      Span s(spans, "core.harvest", &out.harvest_s);
      out.result = core::harvest_coloring(*engine, g, schedule, stats);
    }
  }
  out.counts = read_counts(reg);
  return out;
}

/// Event tally of a sink-enabled engine (the scalar `on_slot` path, whose
/// counts equal the batch path's under draw-order spec v1).  Edge visits
/// are what medium resolution walks: Σ deg(sender) over transmissions.
struct CountingSink {
  static constexpr bool kEnabled = true;

  const graph::Graph* g = nullptr;
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t edge_visits = 0;

  void record(const obs::Event& e) {
    if (e.kind == obs::EventKind::kTransmit) {
      ++transmissions;
      edge_visits += g->degree(e.node);
    } else if (e.kind == obs::EventKind::kDelivery) {
      ++deliveries;
    }
  }
  void flush() {}
};

[[nodiscard]] CountingSink run_counting(const graph::Graph& g,
                                        const core::Params& params,
                                        const radio::WakeSchedule& schedule,
                                        std::uint64_t seed,
                                        obs::SpanSink* spans) {
  CountingSink sink;
  sink.g = &g;
  Span s(spans, "radio.counting_run");
  std::vector<core::ColoringNode> nodes;
  nodes.reserve(g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    nodes.emplace_back(&params, v);
  }
  radio::Engine<core::ColoringNode, CountingSink> engine(
      g, schedule, std::move(nodes), seed, {}, &sink);
  (void)engine.run(core::default_slot_budget(params, schedule));
  return sink;
}

/// The split's probe must agree with the run's own statistics, and the
/// counting-sink run (when given) must see the same transmissions and
/// deliveries.
void check_counts(Report& report, const SplitRun& split,
                  const CountingSink* counting) {
  const radio::RunStats& m = split.result.medium;
  const EngineCounts& c = split.counts;
  if (c.slots != static_cast<std::uint64_t>(m.slots_run) ||
      c.transmissions != m.transmissions || c.deliveries != m.deliveries ||
      c.collisions != m.collisions ||
      c.decisions != split.result.latency.size()) {
    report.reject("engine probe counts disagree with the run's RunStats");
  }
  if (counting != nullptr && (counting->transmissions != m.transmissions ||
                              counting->deliveries != m.deliveries)) {
    report.reject("counting-sink run disagrees with the split on "
                  "transmissions or deliveries");
  }
}

/// Decomposition equivalence: the split must reproduce the untraced op
/// exactly (RunStats, colors, decision slots), and its counts must hold.
void check_split(Report& report, const core::RunResult& untraced,
                 const SplitRun& split, const CountingSink* counting) {
  if (const std::string d = same_run(untraced, split.result); !d.empty()) {
    report.reject("public-call split differs from the untraced op: " + d);
  }
  check_counts(report, split, counting);
}

/// The radio and core rows of the per-layer table, from one split and
/// its counting-sink twin.
void split_layers(Layers& layers, const graph::Graph& g,
                  const SplitRun& split, const CountingSink& counting) {
  const EngineCounts& c = split.counts;
  const auto d = [](std::uint64_t x) { return static_cast<double>(x); };
  layers["radio.engine_init_s"] = split.engine_init_s;
  layers["radio.run_s"] = split.run_s;
  layers["radio.ns_per_active_node_slot"] =
      ratio(split.run_s * 1e9, d(c.active));
  layers["radio.slots"] = d(c.slots);
  layers["radio.active_node_slots"] = d(c.active);
  layers["radio.transmissions"] = d(c.transmissions);
  layers["radio.edge_visits"] = d(counting.edge_visits);
  layers["radio.deliveries"] = d(c.deliveries);
  layers["radio.collisions"] = d(c.collisions);
  layers["radio.decisions"] = d(c.decisions);
  layers["radio.delivery_ratio"] =
      ratio(d(c.deliveries), d(c.deliveries + c.collisions));
  layers["radio.active_share"] =
      ratio(d(c.active), d(g.num_nodes()) * d(c.slots));
  layers["radio.edge_visits_per_tx"] =
      ratio(d(counting.edge_visits), d(c.transmissions));
  layers["core.nodes_init_s"] = split.nodes_init_s;
  layers["core.harvest_s"] = split.harvest_s;
  const core::RunResult& r = split.result;
  layers["core.max_color"] = static_cast<double>(r.max_color);
  layers["core.leaders"] = d(r.num_leaders);
  layers["core.resets"] = d(r.total_resets);
  layers["core.latency_mean_slots"] = r.mean_latency();
  layers["core.latency_max_slots"] = static_cast<double>(r.max_latency());
}

void graph_layers(Layers& layers, const graph::Graph& g,
                  const core::Params& params,
                  const std::vector<double>& build_times) {
  layers["graph.build_s"] = samples(build_times).median();
  layers["graph.edges"] = static_cast<double>(g.num_edges());
  layers["graph.max_closed_degree"] =
      static_cast<double>(g.max_closed_degree());
  layers["graph.kappa2"] = static_cast<double>(params.kappa2);
}

/// Counts every workload pins across reps and invocations, summed over
/// the run's deployments.
void run_counts(Report& report, const EngineCounts& c) {
  report.count("run.slots", static_cast<double>(c.slots));
  report.count("run.active_node_slots", static_cast<double>(c.active));
  report.count("run.transmissions", static_cast<double>(c.transmissions));
  report.count("run.deliveries", static_cast<double>(c.deliveries));
  report.count("run.collisions", static_cast<double>(c.collisions));
}

// ---- deployments -------------------------------------------------------------

/// One workload input: the deployment, the parameters every node is
/// given, the wake schedule(s) and the run seed, with what building them
/// cost.
struct Deployment {
  graph::GeometricGraph net;
  core::Params params;
  radio::WakeSchedule schedule;          ///< synchronous workloads
  analysis::ScheduleFactory schedules;   ///< e2_sweep (one per trial)
  std::optional<obs::MonitorConfig> monitor;  ///< traced_monitor
  /// e2_sweep: κ₁ and κ₂ are exact, not greedy lower bounds.
  bool kappa_exact = true;
  std::uint64_t run_seed = 0;
  double build_s = 0.0;
  double kappa_s = 0.0;
  double monitor_config_s = 0.0;
};

/// Wall seconds of every set-up in a run, whole and by part.
struct SetupTimes {
  std::vector<double> total;
  std::vector<double> build;
  std::vector<double> kappa;
  std::vector<double> monitor_config;
};

/// Set up `count` deployments (k = 0..count-1), each `reps` times; the
/// last copy of each is kept.  A run spans several deployments of its
/// seed so that its medians describe the workload, not one draw of it.
template <typename Make>
[[nodiscard]] std::vector<Deployment> set_up(std::size_t count, int reps,
                                             obs::SpanSink* spans,
                                             SetupTimes& times, Make&& make) {
  std::vector<Deployment> out;
  for (std::size_t k = 0; k < count; ++k) {
    std::optional<Deployment> d;
    for (int r = 0; r < reps; ++r) {
      double s = 0.0;
      {
        Span span(spans, "setup", &s);
        d.emplace(make(k));
      }
      times.total.push_back(s);
      times.build.push_back(d->build_s);
      times.kappa.push_back(d->kappa_s);
      times.monitor_config.push_back(d->monitor_config_s);
    }
    out.push_back(std::move(*d));
  }
  return out;
}

/// Repetitions of each set-up without κ estimation (milliseconds each),
/// so that setup_s is a median over tens of set-ups.
constexpr int kCheapSetupReps = 10;

/// A random UDG with Params::practical(n, Δ, 5, 12) scaled by
/// kConstantScale — the κ values the unit disk graph family is run with
/// when they are not measured — and synchronous wake-up.
[[nodiscard]] Deployment sync_udg(std::uint64_t seed, std::size_t n,
                                  double side, obs::SpanSink* spans) {
  Deployment d;
  Rng rng(mix_seed(seed, 0x9D));
  {
    Span s(spans, "graph.random_udg", &d.build_s);
    d.net = graph::random_udg(n, side, kRadius, rng);
  }
  {
    Span s(spans, "core.params");
    const std::uint32_t delta = std::max(2u, d.net.graph.max_closed_degree());
    d.params =
        core::Params::practical(n, delta, 5, 12).scaled(kConstantScale);
    d.params.validate();
  }
  {
    Span s(spans, "radio.wake_schedule");
    d.schedule = radio::WakeSchedule::synchronous(n);
  }
  d.run_seed = mix_seed(seed, 0x5EED);
  return d;
}

void describe(const std::vector<Deployment>& deps) {
  for (std::size_t k = 0; k < deps.size(); ++k) {
    const Deployment& d = deps[k];
    std::printf("  deployment %zu: n=%zu edges=%zu Delta=%u kappa1=%u "
                "kappa2=%u threshold=%lld\n",
                k, d.net.graph.num_nodes(), d.net.graph.num_edges(),
                d.params.delta, d.params.kappa1, d.params.kappa2,
                static_cast<long long>(d.params.threshold()));
  }
}

/// Warm-up of the synchronous workloads: each deployment's split run
/// counts its work, passes the output checks, and is the reference its
/// ops must reproduce.
[[nodiscard]] std::vector<SplitRun> warm_up(
    Report& report, const std::vector<Deployment>& deps) {
  std::vector<SplitRun> refs;
  EngineCounts total;
  for (const Deployment& d : deps) {
    refs.push_back(run_split(d.net.graph, d.params, d.schedule, d.run_seed,
                             nullptr));
    const SplitRun& ref = refs.back();
    if (const std::string why = check_coloring(d.net.graph, d.params,
                                               ref.result);
        !why.empty()) {
      report.reject("warm-up run: " + why);
    }
    check_counts(report, ref, nullptr);
    total += ref.counts;
  }
  run_counts(report, total);
  return refs;
}

[[nodiscard]] std::vector<std::uint64_t> active_counts(
    const std::vector<SplitRun>& refs) {
  std::vector<std::uint64_t> out;
  for (const SplitRun& r : refs) out.push_back(r.counts.active);
  return out;
}

/// The traced pass's split and counting-sink run of deployment 0, checked
/// against its warm-up reference.
void traced_split(Report& report, Layers& layers, const Deployment& d,
                  const SplitRun& ref, const SetupTimes& setup,
                  obs::SpanSink* spans, double* op_s) {
  const graph::Graph& g = d.net.graph;
  const SplitRun split = run_split(g, d.params, d.schedule, d.run_seed, spans);
  const CountingSink counting =
      run_counting(g, d.params, d.schedule, d.run_seed, spans);
  check_split(report, ref.result, split, &counting);
  if (!(split.counts == ref.counts)) {
    report.reject("engine counts differ between two splits of one input");
  }
  graph_layers(layers, g, d.params, setup.build);
  split_layers(layers, g, split, counting);
  *op_s = split.op_s;
}

// ---- layer passes shared by the workloads -----------------------------------

constexpr std::size_t kJobs = 2;  // trial-executor workers (half the cores)

/// Per-trial facts of a sweep, for comparing two sweeps of one input.
[[nodiscard]] std::string same_sweep(const analysis::CoreAggregate& a,
                                     const analysis::CoreAggregate& b) {
  if (a.trials != b.trials || a.valid != b.valid ||
      a.completed != b.completed) {
    return "trial/valid/completed counts differ";
  }
  if (a.slots_run.values() != b.slots_run.values()) return "slots differ";
  if (a.max_color.values() != b.max_color.values()) return "colors differ";
  if (a.mean_latency.values() != b.mean_latency.values() ||
      a.max_latency.values() != b.max_latency.values()) {
    return "latencies differ";
  }
  if (a.leaders.values() != b.leaders.values()) return "leaders differ";
  return {};
}

/// The output checks of one sweep of `trials` trials (empty string = all
/// pass): every trial valid and complete, every trial's highest color
/// within `color_bound`, and, when given, trial for trial the reference
/// sweep of the same input.
[[nodiscard]] std::string check_sweep(const core::Params& params,
                                      std::size_t trials,
                                      const analysis::CoreAggregate& agg,
                                      const analysis::CoreAggregate* ref) {
  if (agg.trials != trials || agg.valid != trials ||
      agg.completed != trials) {
    return std::to_string(agg.valid) + " of " + std::to_string(agg.trials) +
           " trials valid, " + std::to_string(agg.completed) + " complete";
  }
  if (agg.max_color.max() > static_cast<double>(color_bound(params))) {
    return "Theorem 5: a trial's max color exceeds Delta*(kappa2+1)+kappa2";
  }
  return ref != nullptr ? same_sweep(*ref, agg) : std::string();
}

/// One sweep on kJobs workers with pool and engine telemetry (worker
/// chunks land on tracks 0..kJobs-1); fills the exec and analysis rows.
struct ProbedSweep {
  analysis::CoreAggregate agg;
  std::uint64_t active = 0;  ///< engine.node_slots summed over the trials
  double seconds = 0.0;
};

[[nodiscard]] ProbedSweep probed_sweep(
    Layers& layers, const graph::Graph& g, const core::Params& params,
    const analysis::ScheduleFactory& schedules, std::size_t trials,
    std::uint64_t seed, obs::SpanSink* spans) {
  ProbedSweep out;
  obs::telemetry::Registry reg;
  analysis::TrialExecOptions exec;
  exec.jobs = kJobs;
  exec.telemetry = &reg;
  exec.spans = spans;
  {
    Span s(spans, "analysis.run_core_trials", &out.seconds);
    out.agg = analysis::run_core_trials(g, params, schedules, trials, seed,
                                        exec);
  }
  out.active = read_counts(reg).active;
  const double busy_s =
      static_cast<double>(reg.counter("pool.busy.ns").value()) * 1e-9;
  layers["exec.busy_s"] = busy_s;
  layers["exec.wait_s"] =
      static_cast<double>(reg.counter("pool.wait.ns").value()) * 1e-9;
  layers["exec.chunks"] =
      static_cast<double>(reg.counter("pool.chunks").value());
  layers["exec.efficiency"] =
      ratio(busy_s, static_cast<double>(kJobs) * out.seconds);
  layers["analysis.trials"] = static_cast<double>(out.agg.trials);
  layers["analysis.valid"] = static_cast<double>(out.agg.valid);
  return out;
}

/// Seconds E2's κ estimate (κ₁ and κ₂ over a 48-node sample) takes on `g`.
[[nodiscard]] double sampled_kappa_s(const graph::Graph& g,
                                     std::uint64_t seed,
                                     obs::SpanSink* spans) {
  graph::KappaOptions kopts;
  kopts.sample = 48;
  kopts.seed = seed;
  double s = 0.0;
  {
    Span span(spans, "graph.kappa", &s);
    (void)graph::kappa1(g, kopts);
    (void)graph::kappa2(g, kopts);
  }
  return s;
}

/// What `--trace-bin <log> --monitor` asks of a run.
[[nodiscard]] core::TraceOptions traced_options(const Options& opts,
                                                const std::string& name) {
  core::TraceOptions t;
  t.events_bin = opts.out_dir + "/" + name + ".bin";
  t.monitor = true;
  return t;
}

/// The output checks of a traced run (empty string = all pass): the
/// coloring checks, a monitor report with zero violations, every latency
/// within the monitor's Theorem 3 budget, and the run equal to
/// `reference`, an untraced run of the same input.
[[nodiscard]] std::string check_traced(const graph::Graph& g,
                                       const core::Params& params,
                                       const obs::MonitorConfig& monitor,
                                       const core::RunResult& r,
                                       const core::RunResult& reference) {
  std::string why = check_coloring(g, params, r);
  if (!why.empty()) return why;
  if (!r.monitor.has_value()) return "no monitor report";
  if (!r.monitor->ok()) {
    return "invariant monitor reported " +
           std::to_string(r.monitor->total_violations()) + " violations";
  }
  if (r.max_latency() > monitor.latency_budget) {
    return "Theorem 3: a decision latency exceeds the monitor's budget";
  }
  return same_run(reference, r);
}

/// The obs rows: one core::run_coloring_traced with `topts` (URNB log +
/// monitor) and a plain core::run_coloring of the same input as its
/// comparator.  Returns the traced run's seconds.
double obs_layers(Report& report, Layers& layers, const graph::Graph& g,
                  const core::Params& params,
                  const radio::WakeSchedule& schedule, std::uint64_t seed,
                  const obs::MonitorConfig& monitor, double monitor_config_s,
                  const core::TraceOptions& topts, obs::SpanSink* spans) {
  double traced_s = 0.0;
  double plain_s = 0.0;
  std::optional<core::RunResult> traced;
  {
    Span s(spans, "core.run_coloring_traced", &traced_s);
    traced.emplace(core::run_coloring_traced(g, params, schedule, seed, topts));
  }
  std::optional<core::RunResult> plain;
  {
    Span s(spans, "core.run_coloring", &plain_s);
    plain.emplace(core::run_coloring(g, params, schedule, seed));
  }
  if (const std::string why = check_traced(g, params, monitor, *traced, *plain);
      !why.empty()) {
    report.reject("traced pass: " + why);
  }
  std::error_code ec;
  const auto bin_bytes = std::filesystem::file_size(topts.events_bin, ec);
  if (ec) report.reject("cannot stat the URNB log " + topts.events_bin);
  std::filesystem::remove(topts.events_bin, ec);

  const auto n_events = static_cast<double>(traced->events_recorded);
  layers["obs.monitor_config_s"] = monitor_config_s;
  layers["obs.traced_run_s"] = traced_s;
  layers["obs.overhead_ratio"] = ratio(traced_s, plain_s);
  layers["obs.events"] = n_events;
  layers["obs.bin_bytes"] = static_cast<double>(bin_bytes);
  layers["obs.ns_per_event"] = ratio((traced_s - plain_s) * 1e9, n_events);
  layers["obs.monitor_violations"] =
      traced->monitor
          ? static_cast<double>(traced->monitor->total_violations())
          : 0.0;
  return traced_s;
}

// ---- dense_sync --------------------------------------------------------------

Report dense_sync(const Options& opts, obs::SpanSink* spans) {
  constexpr std::size_t kDeployments = 3;
  Report report;
  SetupTimes setup;
  const std::vector<Deployment> deps = set_up(
      kDeployments, kCheapSetupReps, spans, setup, [&](std::size_t k) {
        return sync_udg(mix_seed(opts.seed, 0xD5 + k), 1024, 10.0, spans);
      });
  describe(deps);
  const std::vector<SplitRun> refs = warm_up(report, deps);

  const std::vector<OpTime> ops =
      timed_rounds(opts.seconds, deps.size(), [&](std::size_t k) {
        const Deployment& d = deps[k];
        const Clock::time_point t0 = Clock::now();
        const core::RunResult r =
            core::run_coloring(d.net.graph, d.params, d.schedule, d.run_seed);
        const double dt = seconds_since(t0);
        std::string why = check_coloring(d.net.graph, d.params, r);
        if (why.empty()) why = same_run(refs[k].result, r);
        report.op(why);
        return dt;
      });
  if (!opts.trace) {
    emit_end_to_end(report, setup.total, ops, active_counts(refs));
    return report;
  }
  Layers layers;
  double split_s = 0.0;
  traced_split(report, layers, deps[0], refs[0], setup, spans, &split_s);
  layers["trace_overhead"] = ratio(split_s, median_of(ops, 0));
  emit_layers(report, layers);
  return report;
}

// ---- traced_monitor ----------------------------------------------------------

Report traced_monitor(const Options& opts, obs::SpanSink* spans) {
  constexpr std::size_t kDeployments = 4;
  Report report;
  SetupTimes setup;
  const std::vector<Deployment> deps = set_up(
      kDeployments, kCheapSetupReps, spans, setup, [&](std::size_t k) {
        Deployment d =
            sync_udg(mix_seed(opts.seed, 0x7A + k), 1024, 21.0, spans);
        {
          Span s(spans, "core.make_monitor_config", &d.monitor_config_s);
          d.monitor =
              core::make_monitor_config(d.net.graph, d.params, d.schedule);
        }
        return d;
      });
  describe(deps);
  const std::vector<SplitRun> refs = warm_up(report, deps);

  const core::TraceOptions topts = traced_options(opts, "traced_monitor");
  std::vector<std::optional<std::uint64_t>> events(deps.size());
  std::error_code ec;
  const std::vector<OpTime> ops =
      timed_rounds(opts.seconds, deps.size(), [&](std::size_t k) {
        const Deployment& d = deps[k];
        const Clock::time_point t0 = Clock::now();
        const core::RunResult r = core::run_coloring_traced(
            d.net.graph, d.params, d.schedule, d.run_seed, topts);
        const double dt = seconds_since(t0);
        // Each op writes a fresh log, as a traced run of a tool does;
        // unlinking it drops its dirty pages, so the write-back of one
        // op's ~0.7 GB does not throttle the next.
        std::filesystem::remove(topts.events_bin, ec);
        std::string why =
            check_traced(d.net.graph, d.params, *d.monitor, r, refs[k].result);
        if (why.empty() && events[k].has_value() &&
            *events[k] != r.events_recorded) {
          why = "event count differs between reps of one input";
        }
        events[k] = r.events_recorded;
        report.op(why);
        return dt;
      });
  std::uint64_t total_events = 0;
  for (const auto& e : events) total_events += e.value_or(0);
  report.count("run.events", static_cast<double>(total_events));

  if (!opts.trace) {
    emit_end_to_end(report, setup.total, ops, active_counts(refs));
    return report;
  }
  const Deployment& d = deps[0];
  Layers layers;
  double split_s = 0.0;
  traced_split(report, layers, d, refs[0], setup, spans, &split_s);
  const double traced_s = obs_layers(
      report, layers, d.net.graph, d.params, d.schedule, d.run_seed,
      *d.monitor, samples(setup.monitor_config).median(), topts, spans);
  // The layers the op never calls, timed on deployment 0 so that every
  // per-layer time is a measurement: κ₁/κ₂ as E2 estimates them and one
  // trial per worker on the trial executor.
  layers["graph.kappa_s"] =
      sampled_kappa_s(d.net.graph, mix_seed(d.run_seed, 0xCA), spans);
  const ProbedSweep sweep =
      probed_sweep(layers, d.net.graph, d.params,
                   analysis::synchronous_schedule(d.net.graph.num_nodes()),
                   kJobs, d.run_seed, spans);
  if (const std::string why = check_sweep(d.params, kJobs, sweep.agg, nullptr);
      !why.empty()) {
    report.reject("traced sweep: " + why);
  }
  layers["trace_overhead"] = ratio(traced_s, median_of(ops, 0));
  emit_layers(report, layers);
  return report;
}

// ---- e2_sweep ----------------------------------------------------------------

constexpr std::size_t kTrials = 16;

/// E2's measured-parameter set-up at its side-9.5 point (Δ ≈ 30): Δ from
/// the graph, κ₁/κ₂ by neighbourhood branch and bound, then
/// Params::practical; wake uniform over 2·threshold.  Unlike E2's
/// 48-node sample, κ is computed over every node: a sample returns a
/// lower bound, and a κ₂ below the true one voids Theorems 4 and 5 (one
/// side-8 deployment measured κ₁/κ₂ = 4/12 against exact 5/13 and a trial
/// coloured two neighbours alike).  Side 9.5 keeps the exact computation
/// to seconds; at side 8 it takes about 30 s per deployment.
[[nodiscard]] Deployment e2_deployment(std::uint64_t seed,
                                       obs::SpanSink* spans) {
  constexpr std::size_t kNodes = 256;
  constexpr double kSide = 9.5;
  Deployment d;
  Rng rng(mix_seed(seed, 0xE2));
  {
    Span s(spans, "graph.random_udg", &d.build_s);
    d.net = graph::random_udg(kNodes, kSide, kRadius, rng);
  }
  const graph::Graph& g = d.net.graph;
  const graph::KappaOptions kopts;  // every node, exact up to 160 nodes
  graph::KappaResult kappa1;
  graph::KappaResult kappa2;
  {
    Span s(spans, "graph.kappa", &d.kappa_s);
    {
      Span k1(spans, "graph.kappa1");
      kappa1 = graph::kappa1(g, kopts);
    }
    Span k2(spans, "graph.kappa2");
    kappa2 = graph::kappa2(g, kopts);
  }
  d.kappa_exact = kappa1.exact && kappa2.exact;
  const std::uint32_t k1 = std::max(2u, kappa1.value);
  const std::uint32_t k2 = std::max(k1, kappa2.value);
  {
    Span s(spans, "core.params");
    const std::uint32_t delta = std::max(2u, g.max_closed_degree());
    d.params =
        core::Params::practical(kNodes, delta, k1, k2).scaled(kConstantScale);
    d.params.validate();
  }
  {
    Span s(spans, "radio.wake_schedule");
    d.schedules =
        analysis::uniform_schedule(kNodes, 2 * d.params.threshold());
  }
  d.run_seed = mix_seed(seed, 0x5EED);
  return d;
}

/// Trial 0 of a sweep as `run_core_trials` runs it.
struct TrialZero {
  radio::WakeSchedule schedule;
  std::uint64_t seed = 0;
};
[[nodiscard]] TrialZero trial_zero(const Deployment& d) {
  const std::uint64_t seed = mix_seed(d.run_seed, 0);
  return {d.schedules(seed), seed};
}

Report e2_sweep(const Options& opts, obs::SpanSink* spans) {
  constexpr std::size_t kDeployments = 4;
  Report report;
  SetupTimes setup;
  const std::vector<Deployment> deps =
      set_up(kDeployments, 1, spans, setup, [&](std::size_t k) {
        return e2_deployment(mix_seed(opts.seed, 0xE2 + k), spans);
      });
  describe(deps);
  for (const Deployment& d : deps) {
    if (!d.kappa_exact) {
      report.reject("a 2-hop neighbourhood exceeds the exact branch-and-"
                    "bound limit, so kappa is only a lower bound");
    }
  }
  std::printf("  trials=%zu jobs=%zu\n", kTrials, kJobs);

  analysis::TrialExecOptions exec;
  exec.jobs = kJobs;
  // Warm-up: a probed sweep per deployment counts the work (telemetry
  // never changes results) and is the reference its ops must reproduce;
  // trial 0, run on its own, also passes Theorem 4's locality check.
  std::vector<analysis::CoreAggregate> refs;
  std::vector<std::uint64_t> active;
  std::vector<core::RunResult> zero_runs;
  EngineCounts total;
  for (const Deployment& d : deps) {
    obs::telemetry::Registry reg;
    analysis::TrialExecOptions probed = exec;
    probed.telemetry = &reg;
    refs.push_back(analysis::run_core_trials(d.net.graph, d.params,
                                             d.schedules, kTrials,
                                             d.run_seed, probed));
    if (const std::string why =
            check_sweep(d.params, kTrials, refs.back(), nullptr);
        !why.empty()) {
      report.reject("warm-up sweep: " + why);
    }
    const EngineCounts c = read_counts(reg);
    active.push_back(c.active);
    total += c;
    const TrialZero t0 = trial_zero(d);
    zero_runs.push_back(
        core::run_coloring(d.net.graph, d.params, t0.schedule, t0.seed));
    const core::RunResult& r = zero_runs.back();
    if (const std::string why = check_coloring(d.net.graph, d.params, r);
        !why.empty()) {
      report.reject("trial 0: " + why);
    }
    if (refs.back().slots_run.values().front() !=
            static_cast<double>(r.medium.slots_run) ||
        refs.back().max_color.values().front() !=
            static_cast<double>(r.max_color)) {
      report.reject("trial 0 run on its own differs from the sweep's");
    }
  }
  run_counts(report, total);

  const std::vector<OpTime> ops =
      timed_rounds(opts.seconds, deps.size(), [&](std::size_t k) {
        const Deployment& d = deps[k];
        const Clock::time_point t0 = Clock::now();
        const analysis::CoreAggregate agg = analysis::run_core_trials(
            d.net.graph, d.params, d.schedules, kTrials, d.run_seed, exec);
        const double dt = seconds_since(t0);
        report.op(check_sweep(d.params, kTrials, agg, &refs[k]));
        return dt;
      });
  if (!opts.trace) {
    emit_end_to_end(report, setup.total, ops, active);
    return report;
  }

  const Deployment& d = deps[0];
  const graph::Graph& g = d.net.graph;
  Layers layers;
  graph_layers(layers, g, d.params, setup.build);
  layers["graph.kappa_s"] = samples(setup.kappa).median();

  const ProbedSweep sweep = probed_sweep(layers, g, d.params, d.schedules,
                                         kTrials, d.run_seed, spans);
  if (const std::string why =
          check_sweep(d.params, kTrials, sweep.agg, &refs[0]);
      !why.empty()) {
    report.reject("traced sweep: " + why);
  }
  if (sweep.active != active[0]) {
    report.reject("engine counts differ between two sweeps of one input");
  }
  layers["trace_overhead"] = ratio(sweep.seconds, median_of(ops, 0));

  // Trial 0 split into its public calls: the per-trial fixed cost.
  const TrialZero t0 = trial_zero(d);
  const SplitRun split = run_split(g, d.params, t0.schedule, t0.seed, spans);
  const CountingSink counting =
      run_counting(g, d.params, t0.schedule, t0.seed, spans);
  check_split(report, zero_runs[0], split, &counting);
  split_layers(layers, g, split, counting);

  // The obs rows on trial 0, which the op never traces: what
  // `--trace-bin --monitor` costs on this input.
  double monitor_config_s = 0.0;
  std::optional<obs::MonitorConfig> monitor;
  {
    Span s(spans, "core.make_monitor_config", &monitor_config_s);
    monitor.emplace(core::make_monitor_config(g, d.params, t0.schedule));
  }
  (void)obs_layers(report, layers, g, d.params, t0.schedule, t0.seed,
                   *monitor, monitor_config_s,
                   traced_options(opts, "e2_sweep"), spans);
  emit_layers(report, layers);
  return report;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"dense_sync",
                                                 "traced_monitor", "e2_sweep"};
  return names;
}

Report run_workload(const std::string& name, const Options& opts,
                    obs::SpanSink* spans) {
  if (name == "dense_sync") return dense_sync(opts, spans);
  if (name == "traced_monitor") return traced_monitor(opts, spans);
  if (name == "e2_sweep") return e2_sweep(opts, spans);
  Report report;
  report.reject("unknown workload " + name);
  return report;
}

}  // namespace urn::perfbench

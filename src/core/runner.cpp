#include "core/runner.hpp"

#include <algorithm>
#include <optional>
#include <string>

#include "core/checkpoint.hpp"
#include "obs/bintrace.hpp"
#include "obs/json.hpp"
#include "obs/profile.hpp"
#include "obs/postmortem.hpp"
#include "obs/sink.hpp"
#include "obs/telemetry.hpp"
#include "support/check.hpp"

namespace urn::core {

Slot RunResult::max_latency() const {
  Slot best = 0;
  for (Slot t : latency) best = std::max(best, t);
  return best;
}

double RunResult::mean_latency() const {
  if (latency.empty()) return 0.0;
  double sum = 0.0;
  for (Slot t : latency) sum += static_cast<double>(t);
  return sum / static_cast<double>(latency.size());
}

Slot default_slot_budget(const Params& params,
                         const radio::WakeSchedule& schedule) {
  // Theorem 3: every node decides within O(κ₂⁴ Δ log n) of its wake-up.
  // Budget = last wake + a large multiple of the per-state quantities.
  const double k2 = params.kappa2;
  const Slot per_state = params.passive_slots() + 3 * params.threshold() +
                         2 * params.critical_range(1);
  const auto states = static_cast<Slot>(3.0 * (k2 + 2.0));
  return schedule.latest() + states * per_state + 10000;
}

namespace {

namespace pm = obs::postmortem;

/// The one shared execution path: build nodes, run the engine, extract
/// everything the experiments need.  `S` is the run's observer (the
/// zero-overhead NullSink when untraced), `T` the telemetry probe.
template <obs::EventSink S = obs::NullSink,
          typename T = obs::telemetry::NullEngineProbe>
RunResult run_impl(const graph::Graph& g, const Params& params,
                   const radio::WakeSchedule& schedule, std::uint64_t seed,
                   Slot max_slots, radio::MediumOptions medium,
                   S* sink = nullptr, T* probe = nullptr) {
  params.validate();
  URN_CHECK(schedule.size() == g.num_nodes());
  if (max_slots == 0) max_slots = default_slot_budget(params, schedule);

  obs::ProfileScope profile("core.run_coloring");

  std::vector<ColoringNode> nodes;
  nodes.reserve(g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    nodes.emplace_back(&params, v);
  }
  using Engine = radio::Engine<ColoringNode, S, T>;
  Engine engine(g, schedule, std::move(nodes), seed, medium, sink);
  engine.set_telemetry(probe);
  const radio::RunStats stats = engine.run(max_slots);

  // The extraction lives in harvest_coloring so the checkpoint-resume
  // path (core/checkpoint.cpp) produces field-for-field identical
  // results by construction.
  RunResult result = harvest_coloring(engine, g, schedule, stats);
  if constexpr (T::kEnabled) {
    if (probe != nullptr) {
      for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
        if (engine.decision_slot(v) != Engine::kUndecided) {
          probe->record_decision_latency(
              static_cast<std::uint64_t>(engine.decision_latency(v)));
        }
      }
    }
  }

  // Sharded counters: run_impl executes concurrently under the trial
  // executor (exec::parallel_for_trials).
  auto& profile_counters = obs::profile_registry();
  profile_counters.counter("core.run_coloring.runs").add(1);
  profile_counters.counter("core.run_coloring.slots")
      .add(static_cast<std::uint64_t>(stats.slots_run));
  profile_counters.counter("core.run_coloring.node_slots")
      .add(static_cast<std::uint64_t>(stats.slots_run) * g.num_nodes());
  return result;
}

/// Run only the first stage (leader election + cluster association) on
/// the same engine path as `run_impl`: identical node construction,
/// medium options and event emission — only the stopping rule differs
/// (manual stepping until every node is covered).
template <obs::EventSink S = obs::NullSink,
          typename T = obs::telemetry::NullEngineProbe>
LeaderElectionResult leader_election_impl(
    const graph::Graph& g, const Params& params,
    const radio::WakeSchedule& schedule, std::uint64_t seed, Slot max_slots,
    radio::MediumOptions medium, S* sink = nullptr, T* probe = nullptr) {
  params.validate();
  URN_CHECK(schedule.size() == g.num_nodes());
  if (max_slots == 0) max_slots = default_slot_budget(params, schedule);

  obs::ProfileScope profile("core.run_leader_election");

  std::vector<ColoringNode> nodes;
  nodes.reserve(g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    nodes.emplace_back(&params, v);
  }
  radio::Engine<ColoringNode, S, T> engine(g, schedule, std::move(nodes),
                                           seed, medium, sink);
  engine.set_telemetry(probe);
  if constexpr (T::kEnabled) {
    // Step()-driven loop below: run()'s automatic probe bracketing never
    // fires, so bracket the run here.
    if (probe != nullptr) probe->begin_run();
  }

  LeaderElectionResult result;
  result.leader_of.assign(g.num_nodes(), graph::kInvalidNode);
  result.cover_latency.assign(g.num_nodes(), -1);

  // "Covered" = decided (leader or any later color) or past A₀ (knows a
  // leader).  We step manually and record first-coverage times.
  auto covered = [&engine](graph::NodeId v) {
    const ColoringNode& node = engine.node(v);
    if (node.decided()) return true;
    if (node.phase() == Phase::kRequest) return true;
    return node.phase() == Phase::kVerify && node.verifying_color() > 0;
  };
  std::size_t uncovered = g.num_nodes();
  while (engine.current_slot() < max_slots && uncovered > 0) {
    engine.step();
    const Slot now = engine.current_slot() - 1;
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      if (result.cover_latency[v] >= 0) continue;
      if (now < schedule.wake_slot(v)) continue;
      if (covered(v)) {
        result.cover_latency[v] = now - schedule.wake_slot(v);
        --uncovered;
      }
    }
  }
  engine.flush();  // step()-driven loop: run()'s automatic flush never fires
  result.all_covered = uncovered == 0;
  result.medium = engine.stats();
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    const ColoringNode& node = engine.node(v);
    if (node.is_leader()) result.leaders.push_back(v);
    result.leader_of[v] = node.leader();
    if constexpr (T::kEnabled) {
      if (probe != nullptr && result.cover_latency[v] >= 0) {
        probe->record_decision_latency(
            static_cast<std::uint64_t>(result.cover_latency[v]));
      }
    }
  }
  if constexpr (T::kEnabled) {
    if (probe != nullptr) probe->end_run();
  }

  auto& profile_counters = obs::profile_registry();
  profile_counters.counter("core.run_leader_election.runs").add(1);
  profile_counters.counter("core.run_leader_election.slots")
      .add(static_cast<std::uint64_t>(result.medium.slots_run));
  return result;
}

/// The run's one observer: the engine's event sink on every traced run.
/// It fans each event out to what `trace` asked for — the metrics
/// series, the URNB log, the invariant monitor and the caller's memory
/// capture — and, on postmortem runs, forwards the engine's tick hook to
/// the checkpointer and registers the log's crash flush.
class RunObserver {
 public:
  static constexpr bool kEnabled = true;

  RunObserver(const graph::Graph& g, const Params& params,
              const radio::WakeSchedule& schedule, const TraceOptions& trace,
              pm::Checkpointer* ckpt)
      : memory_(trace.memory), ckpt_(ckpt) {
    if (trace.metrics) metrics_.emplace(trace.metrics_window);
    if (!trace.events_bin.empty()) {
      bin_.emplace(trace.events_bin, trace.bin_ring);
      URN_CHECK_MSG(bin_->ok(),
                    "traced run: cannot open " << trace.events_bin);
    }
    if (trace.monitor) {
      monitor_.emplace(make_monitor_config(g, params, schedule));
    }
    if (ckpt_ != nullptr && bin_) {
      pm::set_crash_flush(
          [](void* arg) { static_cast<obs::BinSink*>(arg)->flush(); },
          &*bin_);
    }
  }
  RunObserver(const RunObserver&) = delete;
  RunObserver& operator=(const RunObserver&) = delete;
  // The crash handler must not reach a destroyed log; BinSink's own
  // destructor persists the tail of a run that exits early.
  ~RunObserver() {
    if (ckpt_ != nullptr && bin_) pm::set_crash_flush(nullptr, nullptr);
  }

  void record(const obs::Event& e) {
    if (metrics_) metrics_->record(e);
    if (bin_) bin_->record(e);
    if (monitor_) monitor_->record(e);
    if (memory_ != nullptr) memory_->record(e);
  }
  void flush() {
    if (bin_) bin_->flush();
  }

  template <typename Engine>
  void on_tick(const Engine& engine, Slot tick) {
    if (ckpt_ != nullptr) ckpt_->maybe_checkpoint(engine, tick);
  }

  /// Harvest the artifacts of a run that lasted `slots_run` slots, and
  /// account the log's cost under `trace.overhead.*` (deterministic event
  /// / byte counts; the final flush's wall clock lands under `.ns` keys,
  /// which the bench regression diff ignores).
  void finish_into(TraceArtifacts& result, Slot slots_run) {
    if (metrics_) result.series = metrics_->finish(slots_run);
    if (bin_) {
      {
        obs::ProfileScope flush_scope("trace.overhead.flush");
        bin_->flush();
      }
      result.events_recorded = bin_->written();
      auto& profile_counters = obs::profile_registry();
      profile_counters.counter("trace.overhead.bin.events")
          .add(bin_->written());
      profile_counters.counter("trace.overhead.bin.bytes").add(bin_->bytes());
    }
    if (monitor_) result.monitor = monitor_->report();
  }

 private:
  std::optional<obs::MetricsSink> metrics_;
  std::optional<obs::BinSink> bin_;
  std::optional<obs::InvariantMonitorSink> monitor_;
  obs::MemorySink* memory_;
  pm::Checkpointer* ckpt_;
};

/// The one dispatch from `trace` to an engine instantiation, shared by
/// the coloring, leader-election and postmortem paths: `impl(sink, probe)`
/// gets a `RunObserver` only when `trace` asks for events or `ckpt` is
/// given, and an `EngineProbe` only when `trace.telemetry` names a
/// registry.  All off is the untraced NullSink path; telemetry alone
/// keeps it, so a probed sweep runs the untraced loop.
template <typename Impl>
auto run_observed(const graph::Graph& g, const Params& params,
                  const radio::WakeSchedule& schedule,
                  const TraceOptions& trace, pm::Checkpointer* ckpt,
                  Impl&& impl) {
  auto with_probe = [&](auto* sink) {
    if (trace.telemetry == nullptr) {
      return impl(sink,
                  static_cast<obs::telemetry::NullEngineProbe*>(nullptr));
    }
    obs::telemetry::EngineProbe probe(*trace.telemetry);
    return impl(sink, &probe);
  };
  const bool observed = ckpt != nullptr || trace.metrics ||
                        !trace.events_bin.empty() || trace.monitor ||
                        trace.memory != nullptr;
  if (!observed) return with_probe(static_cast<obs::NullSink*>(nullptr));
  RunObserver observer(g, params, schedule, trace, ckpt);
  auto result = with_probe(&observer);
  observer.finish_into(result, result.medium.slots_run);
  return result;
}

/// Render the bundle's `manifest.json`: run identity, scenario shape, and
/// which files the bundle contains.
std::string manifest_json(const PostmortemOptions& po,
                          const CheckpointScenario& s,
                          const pm::Checkpointer& ckpt,
                          const RunResult& result,
                          const std::string& ring_path) {
  obs::json::Doc j;
  j.add("format", "urn-postmortem-bundle");
  j.add("checkpoint_version", std::uint32_t{pm::kCkptVersion});
  j.add("engine", "aligned");
  j.add("trial", po.trial);
  j.add("seed", s.seed);
  j.add("nodes", s.num_nodes);
  j.add("edges", s.edges.size());
  j.add("max_slots", s.max_slots);
  j.add_raw("drop_probability", std::to_string(s.medium.drop_probability));
  j.add("checkpoint_every", po.checkpoint_every);
  j.add("checkpoints_written", ckpt.checkpoints_written());
  j.add("last_checkpoint_position", ckpt.last_position());
  j.add("checkpoint_file", ckpt.path());
  j.add("ring_file", ring_path);
  j.add("slots_run", result.medium.slots_run);
  j.add("all_decided", result.all_decided);
  if (result.monitor) j.add("violations", result.monitor->total_violations());
  return j.render(obs::json::Layout::kLine);
}

/// The postmortem-enabled traced run: periodic checkpoints into the
/// bundle directory, a flight-recorder ring there by default, a crash
/// handler armed for the duration of the run, a manifest always, and the
/// full bundle (monitor + telemetry snapshots) on invariant violation.
/// The run itself is the shared dispatch with the checkpointer attached.
RunResult run_coloring_postmortem(const graph::Graph& g, const Params& params,
                                  const radio::WakeSchedule& schedule,
                                  std::uint64_t seed,
                                  const TraceOptions& trace, Slot max_slots,
                                  radio::MediumOptions medium) {
  const PostmortemOptions& po = trace.postmortem;
  params.validate();
  URN_CHECK(schedule.size() == g.num_nodes());
  // Resolve the budget here: the checkpoint scenario must record the
  // actual cap so a resumed run stops at the same slot.
  if (max_slots == 0) max_slots = default_slot_budget(params, schedule);
  URN_CHECK_MSG(pm::ensure_dir(po.dir),
                "postmortem: cannot create bundle dir " << po.dir);

  TraceOptions local = trace;
  if (po.dump_on_violation) local.monitor = true;
  if (local.events_bin.empty()) {
    // Default flight recorder: a bounded ring inside the bundle.
    local.events_bin = po.dir + "/" + pm::kRingFileName;
    if (local.bin_ring == 0) local.bin_ring = 4096;
  }

  const CheckpointScenario scenario =
      make_scenario(g, params, schedule, seed, max_slots, medium, po.trial);
  pm::Checkpointer ckpt(po.dir + "/" + pm::kCkptFileName,
                        pm::EngineKind::kAligned, po.checkpoint_every,
                        render_scenario(scenario));

  pm::arm_crash_handler(po.dir);
  RunResult result = run_observed(
      g, params, schedule, local, &ckpt, [&](auto* sink, auto* probe) {
        return run_impl(g, params, schedule, seed, max_slots, medium, sink,
                        probe);
      });
  pm::disarm_crash_handler();
  URN_CHECK_MSG(!ckpt.failed(),
                "postmortem: checkpoint write failed under " << po.dir);

  pm::write_text_file(po.dir + "/" + pm::kManifestFileName,
                      manifest_json(po, scenario, ckpt, result,
                                    local.events_bin));
  if (po.dump_on_violation && result.monitor && !result.monitor->ok()) {
    pm::write_text_file(po.dir + "/" + pm::kMonitorFileName,
                        pm::monitor_report_json(*result.monitor));
    if (local.telemetry != nullptr) {
      pm::write_text_file(
          po.dir + "/" + pm::kTelemetryFileName,
          obs::telemetry::to_jsonl_line(local.telemetry->snapshot()));
    }
    result.bundle = po.dir;
  }
  return result;
}

}  // namespace

obs::MonitorConfig make_monitor_config(const graph::Graph& g,
                                       const Params& params,
                                       const radio::WakeSchedule& schedule) {
  obs::MonitorConfig config;
  config.kappa2 = params.kappa2;
  // Theorem 3 budget is per node, measured from its own wake-up: the run
  // budget minus the latest wake slot it covers.
  config.latency_budget =
      default_slot_budget(params, schedule) - schedule.latest();
  config.theta.reserve(g.num_nodes());
  config.adj_offsets.reserve(g.num_nodes() + 1);
  config.adj.reserve(2 * g.num_edges());
  config.adj_offsets.push_back(0);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    config.theta.push_back(graph::local_density_theta(g, v));
    for (graph::NodeId u : g.neighbors(v)) config.adj.push_back(u);
    config.adj_offsets.push_back(
        static_cast<std::uint32_t>(config.adj.size()));
  }
  return config;
}

RunResult run_coloring(const graph::Graph& g, const Params& params,
                       const radio::WakeSchedule& schedule,
                       std::uint64_t seed, Slot max_slots,
                       radio::MediumOptions medium) {
  return run_impl(g, params, schedule, seed, max_slots, medium);
}

RunResult run_coloring_traced(const graph::Graph& g, const Params& params,
                              const radio::WakeSchedule& schedule,
                              std::uint64_t seed, const TraceOptions& trace,
                              Slot max_slots, radio::MediumOptions medium) {
  if (trace.postmortem.enabled()) {
    return run_coloring_postmortem(g, params, schedule, seed, trace,
                                   max_slots, medium);
  }
  return run_observed(
      g, params, schedule, trace, nullptr, [&](auto* sink, auto* probe) {
        return run_impl(g, params, schedule, seed, max_slots, medium, sink,
                        probe);
      });
}

LeaderElectionResult run_leader_election(const graph::Graph& g,
                                         const Params& params,
                                         const radio::WakeSchedule& schedule,
                                         std::uint64_t seed, Slot max_slots,
                                         radio::MediumOptions medium) {
  return leader_election_impl(g, params, schedule, seed, max_slots, medium);
}

LeaderElectionResult run_leader_election_traced(
    const graph::Graph& g, const Params& params,
    const radio::WakeSchedule& schedule, std::uint64_t seed,
    const TraceOptions& trace, Slot max_slots, radio::MediumOptions medium) {
  return run_observed(
      g, params, schedule, trace, nullptr, [&](auto* sink, auto* probe) {
        return leader_election_impl(g, params, schedule, seed, max_slots,
                                    medium, sink, probe);
      });
}

LocalityReport check_locality(const graph::Graph& g,
                              const std::vector<graph::Color>& colors,
                              std::uint32_t kappa2) {
  URN_CHECK(colors.size() == g.num_nodes());
  LocalityReport report;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto theta =
        static_cast<double>(graph::local_density_theta(g, v));
    const graph::Color phi = graph::highest_neighborhood_color(g, colors, v);
    if (phi == graph::kUncolored) continue;
    const double ratio = static_cast<double>(phi) / theta;
    if (ratio > report.max_ratio) {
      report.max_ratio = ratio;
      report.worst = v;
    }
    const double derivable_bound =
        (static_cast<double>(kappa2) + 1.0) * theta +
        static_cast<double>(kappa2);
    if (static_cast<double>(phi) > derivable_bound) {
      report.holds = false;
    }
  }
  return report;
}

}  // namespace urn::core

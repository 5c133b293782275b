#include "analysis/experiment.hpp"

#include <optional>
#include <utility>

#include "exec/chunk.hpp"
#include "exec/parallel.hpp"
#include "obs/telemetry.hpp"
#include "support/rng.hpp"

namespace urn::analysis {

ScheduleFactory synchronous_schedule(std::size_t n) {
  return [n](std::uint64_t) { return radio::WakeSchedule::synchronous(n); };
}

ScheduleFactory uniform_schedule(std::size_t n, radio::Slot window) {
  return [n, window](std::uint64_t trial_seed) {
    Rng rng(mix_seed(trial_seed, 0x5c4edu));
    return radio::WakeSchedule::uniform(n, window, rng);
  };
}

namespace {

/// The earliest violation inside one trial's monitor report: lowest
/// slot; ties broken by invariant declaration order (deterministic).
[[nodiscard]] std::optional<CoreAggregate::FirstViolation>
earliest_violation(const obs::MonitorReport& report, std::size_t trial) {
  std::optional<CoreAggregate::FirstViolation> best;
  for (std::size_t i = 0; i < obs::kNumInvariants; ++i) {
    const auto& inv = report.invariants[i];
    if (inv.count == 0) continue;
    if (!best || inv.first_slot < best->slot) {
      best = CoreAggregate::FirstViolation{
          trial, static_cast<obs::Invariant>(i), inv.first_slot,
          inv.first_node, inv.first_what};
    }
  }
  return best;
}

}  // namespace

void record_run(CoreAggregate& agg, const core::RunResult& run,
                std::size_t trial) {
  ++agg.trials;
  if (run.check.valid()) ++agg.valid;
  if (run.all_decided) ++agg.completed;
  if (!run.latency.empty()) {
    Samples lat;
    for (radio::Slot t : run.latency) lat.add(static_cast<double>(t));
    agg.max_latency.add(lat.max());
    agg.mean_latency.add(lat.mean());
    agg.p95_latency.add(lat.percentile(95.0));
  }
  agg.max_color.add(static_cast<double>(run.max_color));
  agg.distinct_colors.add(
      static_cast<double>(graph::distinct_colors(run.colors)));
  agg.leaders.add(static_cast<double>(run.num_leaders));
  const auto n = static_cast<double>(run.colors.size());
  agg.resets_per_node.add(n > 0 ? static_cast<double>(run.total_resets) / n
                                : 0.0);
  agg.slots_run.add(static_cast<double>(run.medium.slots_run));

  if (run.monitor.has_value()) {
    agg.monitor_events += run.monitor->events_seen;
    agg.monitor_violations += run.monitor->total_violations();
    auto fv = earliest_violation(*run.monitor, trial);
    if (fv.has_value() && (!agg.first_violation.has_value() ||
                           fv->trial < agg.first_violation->trial)) {
      agg.first_violation = std::move(fv);
    }
  }
  if (!run.bundle.empty()) agg.bundles.push_back(run.bundle);
}

void record_run(CoreAggregate& agg, const core::RunResult& run) {
  record_run(agg, run, agg.trials);
}

void CoreAggregate::merge(const CoreAggregate& other) {
  trials += other.trials;
  valid += other.valid;
  completed += other.completed;
  max_latency.merge(other.max_latency);
  mean_latency.merge(other.mean_latency);
  p95_latency.merge(other.p95_latency);
  max_color.merge(other.max_color);
  distinct_colors.merge(other.distinct_colors);
  leaders.merge(other.leaders);
  resets_per_node.merge(other.resets_per_node);
  slots_run.merge(other.slots_run);
  monitor_events += other.monitor_events;
  monitor_violations += other.monitor_violations;
  if (other.first_violation.has_value() &&
      (!first_violation.has_value() ||
       other.first_violation->trial < first_violation->trial)) {
    first_violation = other.first_violation;
  }
  bundles.insert(bundles.end(), other.bundles.begin(), other.bundles.end());
}

CoreAggregate run_core_trials(const graph::Graph& g,
                              const core::Params& params,
                              const ScheduleFactory& schedules,
                              std::size_t trials, std::uint64_t seed0,
                              const TrialExecOptions& exec) {
  core::TraceOptions topts;
  topts.monitor = exec.monitor;
  topts.telemetry = exec.telemetry;
  // One pool probe for the whole trial loop; per-run engine probes are
  // constructed inside run_coloring_traced (worker-local, like the
  // monitor sink — sharded counters make the shared registry safe).
  std::optional<obs::telemetry::PoolProbe> pool_probe;
  if (exec.telemetry != nullptr) {
    pool_probe.emplace(*exec.telemetry, exec::resolve_jobs(exec.jobs));
  }
  return exec::parallel_for_trials<CoreAggregate>(
      trials,
      exec::ExecOptions{exec.jobs, exec.chunk, exec.spans,
                        pool_probe ? &*pool_probe : nullptr},
      [&](CoreAggregate& agg, std::size_t t) {
        const std::uint64_t trial_seed = mix_seed(seed0, t);
        const radio::WakeSchedule schedule = schedules(trial_seed);
        // All options off is the untraced path; a monitored trial's
        // observer is per trial, so monitor state is worker-local, and
        // the RunResult is bit-identical either way.  Postmortem trials
        // redirect their bundle into a per-trial subdirectory so
        // concurrent workers never share files.
        core::TraceOptions trial_topts = topts;
        if (exec.postmortem.enabled()) {
          trial_topts.postmortem = exec.postmortem;
          trial_topts.postmortem.dir =
              exec.postmortem.dir + "/" + exec::trial_tag(t);
          trial_topts.postmortem.trial = t;
        }
        record_run(agg,
                   core::run_coloring_traced(g, params, schedule, trial_seed,
                                             trial_topts, exec.max_slots),
                   t);
      },
      [](CoreAggregate& into, CoreAggregate&& part) { into.merge(part); });
}

CoreAggregate run_core_trials(const graph::Graph& g,
                              const core::Params& params,
                              const ScheduleFactory& schedules,
                              std::size_t trials, std::uint64_t seed0,
                              radio::Slot max_slots) {
  TrialExecOptions exec;
  exec.max_slots = max_slots;
  return run_core_trials(g, params, schedules, trials, seed0, exec);
}

void record_explain(ExplainAggregate& agg,
                    const obs::ExplainReport& report) {
  ++agg.trials;
  agg.nodes += report.nodes.size();
  agg.decided_nodes += report.decided_nodes;
  agg.exact_nodes += report.exact_nodes;
  agg.fig2_violations += report.fig2_violations;
  for (std::size_t c = 0; c < obs::kNumCauses; ++c) {
    agg.totals[c] += report.totals[c];
    for (std::size_t b = 0; b < obs::kNumPhaseBuckets; ++b) {
      agg.phase_totals[b][c] += report.phase_totals[b][c];
    }
  }
  std::int64_t latency_sum = 0;
  std::size_t decided = 0;
  for (const obs::NodeAttribution& n : report.nodes) {
    if (!n.decided) continue;
    latency_sum += n.latency();
    ++decided;
  }
  agg.mean_latency.add(decided ? static_cast<double>(latency_sum) /
                                     static_cast<double>(decided)
                               : 0.0);
  agg.top_share.add(report.share(report.top_cause()));
}

void ExplainAggregate::merge(const ExplainAggregate& other) {
  trials += other.trials;
  nodes += other.nodes;
  decided_nodes += other.decided_nodes;
  exact_nodes += other.exact_nodes;
  fig2_violations += other.fig2_violations;
  for (std::size_t c = 0; c < obs::kNumCauses; ++c) {
    totals[c] += other.totals[c];
    for (std::size_t b = 0; b < obs::kNumPhaseBuckets; ++b) {
      phase_totals[b][c] += other.phase_totals[b][c];
    }
  }
  mean_latency.merge(other.mean_latency);
  top_share.merge(other.top_share);
}

ExplainAggregate run_explained_trials(const graph::Graph& g,
                                      const core::Params& params,
                                      const ScheduleFactory& schedules,
                                      std::size_t trials, std::uint64_t seed0,
                                      const TrialExecOptions& exec,
                                      radio::MediumOptions medium) {
  obs::ExplainConfig config;
  config.kappa2 = params.kappa2;
  config.passive_slots = params.passive_slots();
  return exec::parallel_for_trials<ExplainAggregate>(
      trials, exec::ExecOptions{exec.jobs, exec.chunk, exec.spans, nullptr},
      [&](ExplainAggregate& agg, std::size_t t) {
        const std::uint64_t trial_seed = mix_seed(seed0, t);
        const radio::WakeSchedule schedule = schedules(trial_seed);
        // Capture in memory (worker-local sink) and attribute in-process:
        // no file round-trip, and sinks never touch RNG streams, so the
        // run itself is bit-identical to an untraced one.
        obs::MemorySink events;
        core::TraceOptions topts;
        topts.monitor = exec.monitor;
        topts.memory = &events;
        const core::RunResult run = core::run_coloring_traced(
            g, params, schedule, trial_seed, topts, exec.max_slots, medium);
        (void)run;
        record_explain(agg, obs::explain_trace(events.events(), config));
      },
      [](ExplainAggregate& into, ExplainAggregate&& part) {
        into.merge(part);
      });
}

void record_leader_run(LeaderAggregate& agg,
                       const core::LeaderElectionResult& run) {
  ++agg.trials;
  if (run.all_covered) ++agg.covered;
  agg.leaders.add(static_cast<double>(run.leaders.size()));
  Samples cover;
  for (radio::Slot s : run.cover_latency) {
    if (s >= 0) cover.add(static_cast<double>(s));
  }
  agg.mean_cover_latency.add(cover.count() ? cover.mean() : 0.0);
  agg.max_cover_latency.add(cover.count() ? cover.max() : 0.0);
  agg.slots_run.add(static_cast<double>(run.medium.slots_run));
  agg.collisions.add(static_cast<double>(run.medium.collisions));
}

void LeaderAggregate::merge(const LeaderAggregate& other) {
  trials += other.trials;
  covered += other.covered;
  leaders.merge(other.leaders);
  mean_cover_latency.merge(other.mean_cover_latency);
  max_cover_latency.merge(other.max_cover_latency);
  slots_run.merge(other.slots_run);
  collisions.merge(other.collisions);
}

LeaderAggregate run_leader_trials(const graph::Graph& g,
                                  const core::Params& params,
                                  const ScheduleFactory& schedules,
                                  std::size_t trials, std::uint64_t seed0,
                                  const TrialExecOptions& exec) {
  core::TraceOptions topts;
  topts.monitor = exec.monitor;
  topts.telemetry = exec.telemetry;
  std::optional<obs::telemetry::PoolProbe> pool_probe;
  if (exec.telemetry != nullptr) {
    pool_probe.emplace(*exec.telemetry, exec::resolve_jobs(exec.jobs));
  }
  return exec::parallel_for_trials<LeaderAggregate>(
      trials,
      exec::ExecOptions{exec.jobs, exec.chunk, exec.spans,
                        pool_probe ? &*pool_probe : nullptr},
      [&](LeaderAggregate& agg, std::size_t t) {
        const std::uint64_t trial_seed = mix_seed(seed0, t);
        const radio::WakeSchedule schedule = schedules(trial_seed);
        record_leader_run(
            agg, core::run_leader_election_traced(g, params, schedule,
                                                  trial_seed, topts,
                                                  exec.max_slots));
      },
      [](LeaderAggregate& into, LeaderAggregate&& part) {
        into.merge(part);
      });
}

}  // namespace urn::analysis

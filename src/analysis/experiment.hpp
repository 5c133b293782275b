/// \file experiment.hpp
/// \brief Replicated-trials harness: run the protocol over many seeds and
///        aggregate the quantities every experiment reports.
///
/// Trials execute on the deterministic parallel executor
/// (`exec::parallel_for_trials`): trial t is a pure function of
/// `mix_seed(seed0, t)`, chunks of the trial index space run on worker
/// threads, and per-chunk partial aggregates are merged in trial order —
/// so `run_core_trials(..., jobs = k)` is **bit-identical** to the serial
/// path for every k and every chunk size.
///
/// ## Thread-safety contract (ScheduleFactory and friends)
///
/// With `jobs > 1` a `ScheduleFactory` is invoked concurrently from
/// several worker threads, one call per trial.  A factory must therefore
/// be a *pure function* of its `trial_seed`:
///
///  * derive all randomness from `trial_seed` (as `uniform_schedule`
///    does — a fresh local `Rng` per call), never from captured RNG or
///    counter state;
///  * capture by value, or capture `const` data that outlives the trial
///    loop and is only read (e.g. a positions vector for wavefront
///    schedules);
///  * never mutate captured state — a by-reference capture of anything
///    mutable makes trial results depend on scheduling.
///
/// The factories returned by `synchronous_schedule` and
/// `uniform_schedule` satisfy the contract.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "core/runner.hpp"
#include "graph/graph.hpp"
#include "obs/monitor.hpp"
#include "radio/wakeup.hpp"
#include "support/stats.hpp"

namespace urn::analysis {

/// Produces the wake schedule for a given trial (fresh randomness per
/// trial; deterministic in the trial seed).  See the thread-safety
/// contract in the file comment.
using ScheduleFactory =
    std::function<radio::WakeSchedule(std::uint64_t trial_seed)>;

/// A ScheduleFactory for the all-at-slot-0 schedule.
[[nodiscard]] ScheduleFactory synchronous_schedule(std::size_t n);

/// A ScheduleFactory waking each node uniformly in [0, window].
[[nodiscard]] ScheduleFactory uniform_schedule(std::size_t n,
                                               radio::Slot window);

/// Execution knobs for the trial loops.  The defaults reproduce the
/// historical serial behavior exactly.
struct TrialExecOptions {
  /// Worker threads, calling thread included; 0 = all hardware threads.
  std::size_t jobs = 1;
  /// Trials per executor chunk; 0 = automatic.  Results never depend on
  /// this (merge happens in trial order), only wall-clock does.
  std::size_t chunk = 0;
  /// Run every trial monitored (obs::InvariantMonitorSink): the
  /// aggregate then carries violation counts and the first violation
  /// with its originating trial index.  Monitored runs are bit-identical
  /// to unmonitored ones (sinks never touch RNG streams).
  bool monitor = false;
  /// Hard slot cap per run (0 = default budget).
  radio::Slot max_slots = 0;
  /// Optional wall-clock timeline (obs::SpanSink): each executor chunk
  /// is recorded on its worker's track, giving a per-worker utilization
  /// view exportable to Perfetto via `urn_trace --export chrome:`.
  /// Spans never feed back into results.  Not owned; must outlive the
  /// call.
  obs::SpanSink* spans = nullptr;
  /// Optional live telemetry registry: every trial then runs with an
  /// engine probe feeding it (slot/medium counters, the live
  /// `engine.undecided` gauge, decision-latency histogram) and the trial
  /// pool reports per-worker utilization into it.  Telemetry alone keeps
  /// the zero-event NullSink engine path (see core::TraceOptions) and
  /// never changes results — probes read counts, they never touch RNG
  /// streams.  Not owned; must outlive the call.
  obs::telemetry::Registry* telemetry = nullptr;
};

/// Aggregates over `trials` independent protocol executions.
struct CoreAggregate {
  std::size_t trials = 0;
  std::size_t valid = 0;      ///< runs with a correct & complete coloring
  std::size_t completed = 0;  ///< runs where all nodes decided in budget

  Samples max_latency;   ///< per-trial max T_v
  Samples mean_latency;  ///< per-trial mean T_v
  Samples p95_latency;   ///< per-trial 95th-percentile T_v
  Samples max_color;     ///< per-trial highest color
  Samples distinct_colors;
  Samples leaders;          ///< per-trial |C₀|
  Samples resets_per_node;  ///< per-trial total resets / n
  Samples slots_run;        ///< per-trial simulated slots

  /// Earliest invariant violation across the monitored trials,
  /// identified by its originating trial index ("first" = lowest trial,
  /// then lowest slot within that trial — the order a serial monitored
  /// loop would report).
  struct FirstViolation {
    std::size_t trial = 0;
    obs::Invariant invariant = obs::Invariant::kPhaseLegality;
    obs::Slot slot = -1;
    obs::NodeId node = obs::kNoNode;
    std::string what;
  };

  // Populated only when trials ran with TrialExecOptions::monitor.
  std::uint64_t monitor_events = 0;      ///< sum of events checked
  std::uint64_t monitor_violations = 0;  ///< sum over all invariants
  std::optional<FirstViolation> first_violation;

  [[nodiscard]] bool monitor_ok() const { return monitor_violations == 0; }

  /// Fold `other` (the aggregate of a later block of trials) into this
  /// one.  Sample streams concatenate in order, so merging chunk
  /// aggregates in trial order is bit-identical to one serial loop.
  void merge(const CoreAggregate& other);

  [[nodiscard]] double valid_fraction() const {
    return trials ? static_cast<double>(valid) / static_cast<double>(trials)
                  : 0.0;
  }
  [[nodiscard]] double completed_fraction() const {
    return trials
               ? static_cast<double>(completed) / static_cast<double>(trials)
               : 0.0;
  }
};

/// Run `trials` seeded executions of the core protocol and aggregate.
/// Trial t uses master seed mix(seed0, t) for both the schedule and the
/// run — the same derivation for every jobs count.
[[nodiscard]] CoreAggregate run_core_trials(
    const graph::Graph& g, const core::Params& params,
    const ScheduleFactory& schedules, std::size_t trials,
    std::uint64_t seed0, const TrialExecOptions& exec);

/// Serial-compatible overload (jobs = 1, no monitor).
[[nodiscard]] CoreAggregate run_core_trials(
    const graph::Graph& g, const core::Params& params,
    const ScheduleFactory& schedules, std::size_t trials,
    std::uint64_t seed0, radio::Slot max_slots = 0);

/// Record one already-computed run into an aggregate (for custom loops).
/// `trial` is the run's global trial index (used to attribute monitor
/// violations); the two-argument form uses the aggregate's own count,
/// which is correct for serial loops that record trial 0, 1, 2, ...
void record_run(CoreAggregate& agg, const core::RunResult& run,
                std::size_t trial);
void record_run(CoreAggregate& agg, const core::RunResult& run);

}  // namespace urn::analysis

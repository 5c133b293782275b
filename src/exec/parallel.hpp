/// \file parallel.hpp
/// \brief `parallel_for_trials`: deterministic fan-out of a trial index
///        space with merge-safe aggregation.
///
/// Monte-Carlo replication in this repo is embarrassingly parallel:
/// trial t is fully determined by `mix_seed(seed0, t)`.  What is *not*
/// automatically parallel-safe is the aggregation — streaming trial
/// results into one accumulator from many threads would make sample
/// order (and thus percentiles, means computed in sequence, and
/// first-violation reports) depend on scheduling.
///
/// `parallel_for_trials` removes that hazard structurally:
///
///  1. [0, trials) is cut into deterministic chunks (`chunk_plan`);
///  2. each chunk owns a private default-constructed `Partial`; workers
///     claim whole chunks and record trials *in increasing order* into
///     that chunk-local partial (this is the "worker-local storage" —
///     sinks, monitors and samples live in the partial, never shared);
///  3. after the pool drains, partials are merged **in chunk order**,
///     i.e. in trial order.
///
/// If `merge(into, part)` is stream concatenation (as `Samples::merge`
/// and `CoreAggregate::merge` are), the final value is
/// bit-identical to a serial loop — for every jobs count and every chunk
/// size.
///
/// Requirements on the callbacks:
///  * `body(Partial&, std::size_t trial)` is invoked concurrently from
///    several threads, but never concurrently on the same Partial; it
///    must not touch shared mutable state (see the ScheduleFactory
///    thread-safety contract in analysis/experiment.hpp).
///  * `merge(Partial& into, Partial&& part)` runs on the calling thread
///    only, in chunk order, starting from a default-constructed `into`.

#pragma once

#include <cstddef>
#include <cstdio>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/chunk.hpp"
#include "exec/pool.hpp"
#include "obs/span.hpp"

namespace urn::exec {

/// Execution knobs for `parallel_for_trials`.
struct ExecOptions {
  /// Worker threads, calling thread included; 0 = all hardware threads.
  std::size_t jobs = 1;
  /// Trials per chunk; 0 = `default_chunk(trials, jobs)`.  Results do
  /// not depend on this, only wall-clock does.
  std::size_t chunk = 0;
  /// Optional wall-clock timeline: each chunk is recorded as a span on
  /// the executing worker's track ("worker N", N = 0 for the calling
  /// thread).  Spans never feed back into results — determinism holds
  /// with or without one.  Not owned; must outlive the call.
  obs::SpanSink* spans = nullptr;
  /// Optional pool telemetry: per-worker utilization / chunks claimed /
  /// queue wait, reported through `TrialPool::run` (see pool.hpp).  Like
  /// spans, never feeds back into results.  Not owned; must outlive the
  /// call.
  obs::telemetry::PoolProbe* telemetry = nullptr;
};

template <typename Partial, typename Body, typename Merge>
[[nodiscard]] Partial parallel_for_trials(std::size_t trials,
                                          const ExecOptions& options,
                                          Body&& body, Merge&& merge) {
  const std::size_t jobs = resolve_jobs(options.jobs);
  const std::size_t chunk =
      options.chunk != 0 ? options.chunk : default_chunk(trials, jobs);
  const std::vector<TrialRange> plan = chunk_plan(trials, chunk);

  std::vector<Partial> partials(plan.size());
  TrialPool pool(jobs);
  if (options.spans != nullptr) {
    for (std::size_t w = 0; w < jobs; ++w) {
      char label[32];
      std::snprintf(label, sizeof(label), "worker %zu", w);
      options.spans->name_track(static_cast<std::uint32_t>(w), label);
    }
  }
  pool.run(
      plan.size(),
      [&](std::size_t ci) {
        const std::uint64_t t0 =
            options.spans != nullptr ? options.spans->now_ns() : 0;
        Partial& partial = partials[ci];
        for (std::size_t t = plan[ci].begin; t < plan[ci].end; ++t) {
          body(partial, t);
        }
        if (options.spans != nullptr) {
          options.spans->record(
              "chunk",
              static_cast<std::uint32_t>(TrialPool::current_worker()), t0,
              options.spans->now_ns() - t0, static_cast<std::int64_t>(ci));
        }
      },
      options.telemetry);

  Partial out{};
  for (Partial& partial : partials) merge(out, std::move(partial));
  return out;
}

/// `parallel_for_trials` for loops that aggregate after the fact: returns
/// `body(t)` for every trial, in trial order, so the caller can fold the
/// results exactly as its serial loop did (floating-point sums included).
template <typename Body>
[[nodiscard]] auto map_trials(std::size_t trials, const ExecOptions& options,
                              Body&& body) {
  using Result = std::decay_t<decltype(body(std::size_t{0}))>;
  return parallel_for_trials<std::vector<Result>>(
      trials, options,
      [&](std::vector<Result>& out, std::size_t t) {
        out.push_back(body(t));
      },
      [](std::vector<Result>& into, std::vector<Result>&& part) {
        for (Result& r : part) into.push_back(std::move(r));
      });
}

}  // namespace urn::exec

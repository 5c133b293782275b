/// \file harness.hpp
/// \brief Shared plumbing of the repository benchmark: clocks and spans,
///        sample statistics, metric reports, peak memory, and the output
///        checks every op must pass.
///
/// Nothing here reaches into the simulator's internals: the benchmark
/// times calls into each layer's public functions from the outside, so
/// the untraced numbers are the code users run.

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/params.hpp"
#include "core/runner.hpp"
#include "graph/graph.hpp"
#include "obs/span.hpp"
#include "support/stats.hpp"

namespace urn::perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point t0);

/// The repository's sample statistics over `xs` (median, percentiles).
[[nodiscard]] Samples samples(const std::vector<double>& xs);

/// Every benchmark span lands on this one track, so spans nest by
/// containment and a span's self time is its duration minus the children
/// it covers.  (The trial executor names tracks 0..jobs-1 after its
/// workers.)
inline constexpr std::uint32_t kSpanTrack = 100;

/// RAII timer around one call into a layer: stores the elapsed seconds in
/// `*out` (when given) and records a span named `name` on `kSpanTrack`
/// when `sink` is non-null (the traced pass).
class Span {
 public:
  Span(obs::SpanSink* sink, const char* name, double* out = nullptr);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

 private:
  obs::SpanSink* sink_;
  const char* name_;
  double* out_;
  Clock::time_point start_;
  std::uint64_t start_ns_ = 0;
};

/// Per-name totals of the spans on `kSpanTrack`.
struct SpanStat {
  std::string name;
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
[[nodiscard]] std::vector<SpanStat> span_table(
    const std::vector<obs::SpanRecord>& spans);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload invocation reports: ops attempted and failed, the
/// metrics of the pass, and the deterministic counts that must repeat
/// bit-for-bit at one seed.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// A check outside any op failed (decomposition equivalence,
  /// determinism across reps); the pass's output is not to be trusted.
  bool rejected = false;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, double>> counts;

  void metric(std::string name, double value, std::string unit);
  void count(std::string name, double value);
  /// Count one op; a non-empty `why` is a failed check (printed to
  /// stderr).
  void op(const std::string& why);
  /// Record a failed check outside any op (printed to stderr).
  void reject(const std::string& why);
  [[nodiscard]] bool correct() const { return failed == 0 && !rejected; }
};

/// Peak resident set size of this process image, MiB (VmHWM).
[[nodiscard]] double peak_rss_mib();

/// Theorem 5's color bound for a run's parameters, in the derivable form
/// the repository checks it (DESIGN.md, test_runner_integration): the
/// paper's κ₂·Δ absorbs the (κ₂+1) bookkeeping of the first verify color
/// tc·(κ₂+1) with tc ≤ Δ−1, so the bound is Δ(κ₂+1) + κ₂.
[[nodiscard]] std::int64_t color_bound(const core::Params& params);

/// The output checks of one coloring run (empty string = all pass):
/// every node decided, the coloring is proper and complete
/// (`graph::validate`), the highest color is within `color_bound`
/// (Theorem 5), and Theorem 4's locality bound holds
/// (`core::check_locality`).
[[nodiscard]] std::string check_coloring(const graph::Graph& g,
                                         const core::Params& params,
                                         const core::RunResult& run);

/// Empty when two runs of one input agree on medium statistics, colors
/// and decision slots; otherwise names the first difference.
[[nodiscard]] std::string same_run(const core::RunResult& a,
                                   const core::RunResult& b);

/// JSON number with every digit of the double (shortest round-trip form).
[[nodiscard]] std::string json_number(double v);

}  // namespace urn::perfbench

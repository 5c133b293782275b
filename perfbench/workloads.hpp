/// \file workloads.hpp
/// \brief The benchmark's three workloads (see perfbench/README.md for
///        why each was chosen and which layers it loads and bypasses).
///
///  * `dense_sync`     — one `core::run_coloring` to quiescence on a dense
///                       synchronous-wake UDG: the untraced batch engine loop.
///  * `traced_monitor` — one `core::run_coloring_traced` with a URNB event
///                       log and the online invariant monitor: the
///                       observability stack and the scalar traced loop.
///  * `e2_sweep`       — one `analysis::run_core_trials` sweep on 2 workers
///                       after κ₁/κ₂ estimation: staggered wake, the trial
///                       executor, and the graph independence code.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "obs/span.hpp"

namespace urn::perfbench {

struct Options {
  std::uint64_t seed = 1;
  /// How long the timed loop of ops runs (at least one op runs).
  double seconds = 10.0;
  /// Run the traced pass and report per-layer metrics instead of the
  /// end-to-end ones.
  bool trace = false;
  /// Directory for the traced_monitor event log (created if missing).
  std::string out_dir;
};

/// Workload names, in the order `--workload all` runs them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Run one workload: set-up (repeated, median reported), a warm-up run
/// that also counts the work, the timed loop of ops with every output
/// checked, and with `opts.trace` the traced pass whose spans go to
/// `spans`.  The report holds the end-to-end metrics (untraced) or every
/// per-layer metric (traced).
[[nodiscard]] Report run_workload(const std::string& name,
                                  const Options& opts, obs::SpanSink* spans);

}  // namespace urn::perfbench

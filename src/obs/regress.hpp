/// \file regress.hpp
/// \brief Bench regression comparison: diff a fresh `BENCH_<name>.json`
///        summary against a committed baseline with per-metric
///        tolerances.
///
/// The summaries are flat objects ({"dotted.key": scalar, ...}) read
/// with the one flat-JSON codec (`json::read_file`, obs/json.hpp), so a
/// value is a number, a bool or a quoted string.  `diff_bench` walks the
/// *baseline's* keys —
/// a key missing from the fresh run is a regression (a metric silently
/// disappeared), while extra fresh keys are fine (new metrics land
/// without invalidating old baselines).  Numeric values compare within
/// `abs_tol + rel_tol·|baseline|`; everything else must match exactly.
/// Keys containing any `skip_substrings` entry are excluded.  The default
/// covers ".ns" (wall-clock profile counters — nondeterministic even in a
/// fixed-seed run), "jobs" (the worker-thread count, an environment fact
/// that never affects the measured statistics), and "telemetry." (live
/// telemetry exports: a mix of deterministic counts, wall-clock totals
/// and scheduling-dependent pool utilization — reported for humans, never
/// gated on, so telemetry-enabled bench runs can't flake the gate).  Keys
/// containing a `rate_substrings` entry (default ".noderate.", the
/// whole-run throughput family) form a third class between "exact" and
/// "skipped": present-and-numeric is required, and an optional one-sided
/// `rate_rel_tol` flags throughput drops beyond the tolerance.
///
/// This is the library half of the `urn_bench_diff` CLI and the
/// `bench_regression` CTest gate.

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace urn::obs {

/// Tolerances and exclusions for the comparison.
struct DiffOptions {
  double rel_tol = 0.0;  ///< allowed |fresh-base| relative to |base|
  double abs_tol = 0.0;  ///< allowed absolute drift
  /// Keys containing any of these substrings are not compared.
  std::vector<std::string> skip_substrings = {".ns", "jobs", "telemetry."};
  /// Keys containing any of these substrings are *rates* (throughput
  /// measurements such as node-slots/s): legitimately machine- and
  /// load-dependent, so exact comparison is meaningless, but silently
  /// losing one — or regressing it — is not.  A rate key must exist in
  /// the fresh run and be numeric; with `rate_rel_tol > 0` the fresh
  /// value must additionally not fall below `baseline·(1 − rate_rel_tol)`
  /// (one-sided: a faster run is never a regression).
  std::vector<std::string> rate_substrings = {".noderate."};
  double rate_rel_tol = 0.0;  ///< 0: presence + numeric check only
  /// Keys containing any of these substrings are *attribution* metrics
  /// (the `explain.*` family): slot totals and share-of-total ratios
  /// from the cause-attribution pass.  Shares are ratios in [0, 1] —
  /// not rates — so the class gets its own two-sided tolerance:
  /// numeric values compare within `explain_tol + explain_tol·|base|`
  /// (the absolute term keeps near-zero shares comparable).  With
  /// `explain_tol == 0` the class is exact — the committed gate stays
  /// bit-identical.  Non-numeric explain values (e.g. the top-cause
  /// name) must match exactly at tol 0 and need only be present
  /// otherwise.
  std::vector<std::string> explain_substrings = {"explain."};
  double explain_tol = 0.0;
};

/// One detected regression.
struct DiffFinding {
  std::string key;
  std::string what;  ///< human-readable: expected vs got
};

/// Outcome of comparing one fresh document against one baseline.
struct DiffReport {
  std::size_t compared = 0;  ///< keys actually checked
  std::size_t skipped = 0;   ///< keys excluded by skip_substrings
  std::vector<DiffFinding> regressions;

  [[nodiscard]] bool ok() const { return regressions.empty(); }
};

/// Compare `fresh` against `baseline` (see file comment for semantics).
[[nodiscard]] DiffReport diff_bench(const json::Doc& baseline,
                                    const json::Doc& fresh,
                                    const DiffOptions& options = {});

}  // namespace urn::obs

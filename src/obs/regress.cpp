#include "obs/regress.hpp"

#include <cmath>

namespace urn::obs {

namespace {

[[nodiscard]] bool matches_any(const std::string& key,
                               const std::vector<std::string>& subs) {
  for (const std::string& sub : subs) {
    if (!sub.empty() && key.find(sub) != std::string::npos) return true;
  }
  return false;
}

}  // namespace

DiffReport diff_bench(const json::Doc& baseline, const json::Doc& fresh,
                      const DiffOptions& options) {
  DiffReport report;
  for (const json::Entry& base : baseline.entries) {
    if (matches_any(base.key, options.skip_substrings)) {
      ++report.skipped;
      continue;
    }
    ++report.compared;
    const json::Entry* got = fresh.find(base.key);
    if (got == nullptr) {
      report.regressions.push_back(
          {base.key, "missing from the fresh run (baseline " + base.raw +
                         ")"});
      continue;
    }
    if (matches_any(base.key, options.rate_substrings)) {
      // Rate class: machine-dependent throughput.  Exact comparison is
      // meaningless; require a numeric value, and (optionally) no drop
      // beyond the one-sided tolerance.  Faster is never a regression.
      if (!got->numeric) {
        report.regressions.push_back(
            {base.key, "rate metric is not numeric: fresh " + got->raw});
      } else if (options.rate_rel_tol > 0.0 && base.numeric &&
                 got->value < base.value * (1.0 - options.rate_rel_tol)) {
        report.regressions.push_back(
            {base.key,
             "rate dropped: baseline " + base.raw + ", fresh " + got->raw +
                 " (allowed floor " +
                 std::to_string(base.value * (1.0 - options.rate_rel_tol)) +
                 ")"});
      }
      continue;
    }
    if (matches_any(base.key, options.explain_substrings)) {
      // Attribution class: explain.* totals and shares.  Two-sided
      // drift check under its own tolerance; tol 0 degrades to exact.
      if (base.numeric && got->numeric) {
        const double allowed =
            options.explain_tol +
            options.explain_tol * std::fabs(base.value);
        if (std::fabs(got->value - base.value) > allowed) {
          report.regressions.push_back(
              {base.key, "explain metric drifted: baseline " + base.raw +
                             ", fresh " + got->raw + " (allowed " +
                             std::to_string(allowed) + ")"});
        }
      } else if (options.explain_tol == 0.0 && base.raw != got->raw) {
        report.regressions.push_back(
            {base.key, "baseline " + base.raw + ", fresh " + got->raw});
      }
      continue;
    }
    if (base.numeric && got->numeric) {
      const double allowed =
          options.abs_tol + options.rel_tol * std::fabs(base.value);
      if (std::fabs(got->value - base.value) > allowed) {
        report.regressions.push_back(
            {base.key, "baseline " + base.raw + ", fresh " + got->raw +
                           " (allowed drift " + std::to_string(allowed) +
                           ")"});
      }
    } else if (base.raw != got->raw) {
      report.regressions.push_back(
          {base.key, "baseline " + base.raw + ", fresh " + got->raw});
    }
  }
  return report;
}

}  // namespace urn::obs

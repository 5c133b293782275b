/// \file urn_bench_diff.cpp
/// \brief Bench regression gate: compare freshly produced BENCH_*.json
///        files against a committed baseline directory and fail on drift.
///
/// The bench binaries emit flat `BENCH_<name>.json` documents when the
/// `URN_BENCH_JSON` environment variable names a directory.  Runs are
/// fixed-seed and bit-reproducible, so the default comparison is exact;
/// wall-clock profile counters (keys containing ".ns"), the worker-thread
/// count ("jobs") and live-telemetry exports ("telemetry.") are skipped
/// by default, and `--rel-tol` / `--abs-tol` open per-metric tolerances for
/// intentionally noisy metrics.  Throughput keys (default substring
/// ".noderate.") form a rate class: they must be present and numeric but
/// are never compared exactly — `--rate-tol 0.3` additionally fails a
/// fresh rate more than 30% below the baseline (one-sided).  Attribution
/// keys (default substring "explain.") form a fourth class with their own
/// two-sided `--explain-tol`; at the default 0 they stay exact, so the
/// committed gate remains bit-identical.
///
/// Examples:
///   urn_bench_diff --baseline bench/baseline --fresh build/bench_json
///   urn_bench_diff --baseline a.json --fresh b.json --rel-tol 0.05
///
/// Exit status: 0 when every baseline metric matches, 1 on regression
/// (including baseline files missing from the fresh directory), 2 on
/// usage / I/O errors.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/regress.hpp"
#include "support/cli.hpp"

namespace {

namespace fs = std::filesystem;

/// Split a comma-separated list, dropping empty pieces.
std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    if (end > start) out.push_back(text.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// Baseline may be a single file or a directory of BENCH_*.json files.
std::vector<fs::path> collect_bench_files(const fs::path& root) {
  std::vector<fs::path> out;
  std::error_code ec;
  if (fs::is_directory(root, ec)) {
    for (const fs::directory_entry& entry :
         fs::directory_iterator(root, ec)) {
      const fs::path& p = entry.path();
      if (p.extension() == ".json" &&
          p.filename().string().rfind("BENCH_", 0) == 0) {
        out.push_back(p);
      }
    }
    std::sort(out.begin(), out.end());
  } else if (fs::is_regular_file(root, ec)) {
    out.push_back(root);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace urn;

  CliFlags flags;
  flags.add_string("baseline", "",
                   "committed baseline: a BENCH_*.json file or a directory "
                   "of them (required)");
  flags.add_string("fresh", "",
                   "freshly produced counterpart: file if --baseline is a "
                   "file, directory otherwise (required)");
  flags.add_double("rel-tol", 0.0,
                   "allowed relative drift per numeric metric");
  flags.add_double("abs-tol", 0.0,
                   "allowed absolute drift per numeric metric");
  flags.add_string("skip", ".ns,jobs,telemetry.",
                   "comma-separated key substrings to skip (wall-clock "
                   "counters, the worker-thread count and live-telemetry "
                   "exports by default; empty = compare everything)");
  flags.add_string("rate-keys", ".noderate.",
                   "comma-separated key substrings treated as throughput "
                   "rates: must be present and numeric, never compared "
                   "exactly (empty = no rate class)");
  flags.add_double("rate-tol", 0.0,
                   "one-sided relative tolerance for rate keys: fail when "
                   "fresh < baseline*(1-tol); 0 disables the value check");
  flags.add_string("explain-keys", "explain.",
                   "comma-separated key substrings treated as attribution "
                   "metrics: compared two-sided under --explain-tol "
                   "(empty = no explain class)");
  flags.add_double("explain-tol", 0.0,
                   "two-sided tolerance for explain keys: allowed drift is "
                   "tol + tol*|baseline|; 0 keeps the class exact");

  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n%s", flags.error().c_str(),
                 flags.usage("urn_bench_diff").c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage("urn_bench_diff").c_str());
    return 0;
  }
  const fs::path baseline_root = flags.get_string("baseline");
  const fs::path fresh_root = flags.get_string("fresh");
  if (baseline_root.empty() || fresh_root.empty()) {
    std::fprintf(stderr, "error: --baseline and --fresh are required\n%s",
                 flags.usage("urn_bench_diff").c_str());
    return 2;
  }

  obs::DiffOptions options;
  options.rel_tol = flags.get_double("rel-tol");
  options.abs_tol = flags.get_double("abs-tol");
  options.skip_substrings = split_csv(flags.get_string("skip"));
  options.rate_substrings = split_csv(flags.get_string("rate-keys"));
  options.rate_rel_tol = flags.get_double("rate-tol");
  options.explain_substrings = split_csv(flags.get_string("explain-keys"));
  options.explain_tol = flags.get_double("explain-tol");

  const std::vector<fs::path> baseline_files =
      collect_bench_files(baseline_root);
  if (baseline_files.empty()) {
    std::fprintf(stderr, "error: no BENCH_*.json under %s\n",
                 baseline_root.string().c_str());
    return 2;
  }
  const bool dir_mode = fs::is_directory(baseline_root);

  std::size_t total_compared = 0;
  std::size_t total_skipped = 0;
  std::size_t total_regressions = 0;
  for (const fs::path& base_path : baseline_files) {
    const fs::path fresh_path =
        dir_mode ? fresh_root / base_path.filename() : fresh_root;
    const obs::json::Doc base = obs::json::read_file(base_path.string());
    if (!base.ok) {
      std::fprintf(stderr, "error: cannot parse %s\n",
                   base_path.string().c_str());
      return 2;
    }
    const obs::json::Doc fresh = obs::json::read_file(fresh_path.string());
    if (!fresh.ok) {
      std::printf("REGRESSION %s: fresh file %s missing or unparsable\n",
                  base_path.filename().string().c_str(),
                  fresh_path.string().c_str());
      total_regressions += base.entries.size();
      continue;
    }
    const obs::DiffReport diff = obs::diff_bench(base, fresh, options);
    total_compared += diff.compared;
    total_skipped += diff.skipped;
    total_regressions += diff.regressions.size();
    for (const obs::DiffFinding& r : diff.regressions) {
      std::printf("REGRESSION %s %s: %s\n",
                  base_path.filename().string().c_str(), r.key.c_str(),
                  r.what.c_str());
    }
  }

  std::printf("urn_bench_diff: %zu files, %zu metrics compared, "
              "%zu skipped, %zu regressions\n",
              baseline_files.size(), total_compared, total_skipped,
              total_regressions);
  if (total_regressions != 0) return 1;
  std::printf("OK: fresh results match the baseline\n");
  return 0;
}

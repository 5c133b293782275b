/// urn_perfbench — the repository benchmark.
///
///   urn_perfbench --workload <dense_sync|traced_monitor|e2_sweep|all>
///                 --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
///
/// Untraced (`--trace 0`): set-up, a warm-up that counts the work, then
/// ops for `--seconds`; prints setup_s, run_p50_s, active_node_slots_per_s,
/// peak_rss_mib and failed_frac.  Traced (`--trace 1`): the same loop, then
/// a pass that times each public call into the layers and prints every
/// per-layer metric plus a span table; the spans are written at exit as a
/// Chrome trace (Perfetto-readable) under `--out-dir`.
///
/// Every op's output is checked.  The last stdout line is one JSON object
/// {"correct", "attempted", "failed", "metrics"}; the line before it,
/// `counts {...}`, lists the simulated counts that must repeat bit-for-bit
/// at one seed.  Exit status: 0 = every check passed, 1 = a check failed,
/// 2 = bad usage, 3 = the run aborted.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "harness.hpp"
#include "obs/chrome.hpp"
#include "obs/span.hpp"
#include "support/cli.hpp"
#include "workloads.hpp"

namespace {

using namespace urn;
using namespace urn::perfbench;

std::string json_object(
    const std::vector<std::pair<std::string, std::string>>& fields) {
  std::string out = "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + fields[i].first + "\": " + fields[i].second;
  }
  return out + "}";
}

std::string metric_json(const Metric& m) {
  return json_object({{"value", json_number(m.value)},
                      {"unit", "\"" + m.unit + "\""}});
}

void print_report(const std::string& name, const Report& report) {
  for (const Metric& m : report.metrics) {
    std::printf("  %-32s %-14s %s\n", m.name.c_str(),
                json_number(m.value).c_str(), m.unit.c_str());
  }
  const double failed_frac =
      report.attempted > 0 ? static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted)
                           : 0.0;
  std::printf("  %-32s %-14s %s (%llu of %llu ops)\n", "failed_frac",
              json_number(failed_frac).c_str(), "1",
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  std::printf("  %s: %s\n", name.c_str(),
              report.correct() ? "every check passed" : "CHECKS FAILED");
}

void print_spans(const obs::SpanSink& spans) {
  std::printf("  %-28s %6s %12s %12s\n", "span", "count", "total_s",
              "self_s");
  for (const SpanStat& s : span_table(spans.snapshot())) {
    std::printf("  %-28s %6zu %12.6f %12.6f\n", s.name.c_str(), s.count,
                s.total_s, s.self_s);
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.add_string("workload", "",
                   "dense_sync | traced_monitor | e2_sweep | all");
  flags.add_int("seed", 1, "workload seed; the inputs are a function of it");
  flags.add_double("seconds", 10.0, "length of the timed loop of ops");
  flags.add_int("trace", 0, "1 = traced pass with per-layer metrics");
  flags.add_string("out-dir", ".bench_build/perfbench-out",
                   "directory for the event log and the span trace");
  if (!flags.parse(argc, argv) || flags.help_requested()) {
    if (!flags.error().empty()) {
      std::fprintf(stderr, "error: %s\n", flags.error().c_str());
    }
    std::fprintf(stderr, "%s", flags.usage("urn_perfbench").c_str());
    return flags.help_requested() ? 0 : 2;
  }
  const std::string workload = flags.get_string("workload");
  const auto& known = workload_names();
  std::vector<std::string> names;
  if (workload == "all") {
    names = known;
  } else if (std::find(known.begin(), known.end(), workload) !=
             known.end()) {
    names = {workload};
  } else {
    std::fprintf(stderr, "error: unknown --workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  const std::int64_t seed = flags.get_int("seed");
  const double seconds = flags.get_double("seconds");
  const std::int64_t trace = flags.get_int("trace");
  if (seed < 0 || !(seconds > 0.0 && seconds <= 3600.0) ||
      (trace != 0 && trace != 1)) {
    std::fprintf(stderr,
                 "error: need --seed >= 0, 0 < --seconds <= 3600, "
                 "--trace 0|1\n");
    return 2;
  }
  Options opts;
  opts.seed = static_cast<std::uint64_t>(seed);
  opts.seconds = seconds;
  opts.trace = trace == 1;
  opts.out_dir = flags.get_string("out-dir");
  std::error_code ec;
  std::filesystem::create_directories(opts.out_dir, ec);
  if (ec || !std::filesystem::is_directory(opts.out_dir)) {
    std::fprintf(stderr, "error: cannot write %s\n", opts.out_dir.c_str());
    return 2;
  }

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::string>> metrics;
  std::vector<std::pair<std::string, std::string>> counts;
  try {
    for (const std::string& name : names) {
      const std::string prefix = names.size() > 1 ? name + "." : "";
      std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
                  name.c_str(), static_cast<unsigned long long>(opts.seed),
                  opts.seconds, opts.trace ? 1 : 0);
      std::fflush(stdout);
      obs::SpanSink spans;
      const Report report =
          run_workload(name, opts, opts.trace ? &spans : nullptr);
      print_report(name, report);
      if (opts.trace) {
        print_spans(spans);
        const std::string path = opts.out_dir + "/" + name + "-seed" +
                                 std::to_string(opts.seed) + ".trace.json";
        if (!obs::write_chrome_spans_file(path, spans)) {
          std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
          correct = false;
        } else {
          std::printf("  spans -> %s\n", path.c_str());
        }
      }
      correct = correct && report.correct();
      attempted += report.attempted;
      failed += report.failed;
      for (const Metric& m : report.metrics) {
        metrics.emplace_back(prefix + m.name, metric_json(m));
      }
      for (const auto& [key, value] : report.counts) {
        counts.emplace_back(prefix + key, json_number(value));
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: run aborted: %s\n", e.what());
    return 3;
  }
  std::printf("counts %s\n", json_object(counts).c_str());
  std::printf("%s\n",
              json_object({{"correct", correct ? "true" : "false"},
                           {"attempted", std::to_string(attempted)},
                           {"failed", std::to_string(failed)},
                           {"metrics", json_object(metrics)}})
                  .c_str());
  return correct ? 0 : 1;
}

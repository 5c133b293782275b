/// \file urn_explain.cpp
/// \brief Causal latency attribution CLI: decompose "slots to decide"
///        into causes (obs/explain.hpp) and statistically compare runs.
///
/// Subcommands (positional arguments come before flags):
///
///   urn_explain summarize <trace>            network-wide attribution
///   urn_explain node <id> <trace>            one node's breakdown
///   urn_explain diff <traceA> <traceB>       per-cause deltas + CIs
///
/// Common flags: --kappa2 K and --passive-slots P forward the run
/// parameters the trace alone cannot reveal (without --passive-slots,
/// A_i protocol waits are reported as idle); --json switches to flat
/// machine-readable output.  `summarize --export chrome:PATH` writes a
/// per-node cause-span icicle for Perfetto / chrome://tracing.
///
/// Exit status: 0 on success, 1 when the exact-accounting invariant
/// fails (a decided node's causes do not sum to its recorded latency —
/// a truncated or corrupted capture), 2 on usage / I/O errors.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/bintrace.hpp"
#include "obs/explain.hpp"
#include "obs/json.hpp"
#include "support/cli.hpp"

namespace {

using namespace urn;

int usage_error(const char* msg) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: urn_explain summarize <trace> [flags]\n"
               "       urn_explain node <id> <trace> [flags]\n"
               "       urn_explain diff <traceA> <traceB> [flags]\n"
               "flags: --kappa2 K --passive-slots P --json\n"
               "       --export chrome:PATH (summarize)\n"
               "       --resamples N --seed S --confidence C (diff)\n",
               msg);
  return 2;
}

/// Load a trace or exit-style fail: prints the reader's one-line error.
bool load(const std::string& path, obs::ParsedTraceFile& out) {
  out = obs::read_trace_file(path);
  if (!out.ok) {
    std::fprintf(stderr, "error: %s\n", out.error.c_str());
    return false;
  }
  return true;
}

void print_report(const obs::ExplainReport& r) {
  std::printf("attribution: %zu nodes, %zu decided, %zu exact, "
              "%zu fig2 violations\n",
              r.nodes.size(), r.decided_nodes, r.exact_nodes,
              r.fig2_violations);
  std::printf("%-12s %10s %8s\n", "cause", "slots", "share");
  for (std::size_t c = 0; c < obs::kNumCauses; ++c) {
    const auto cause = static_cast<obs::Cause>(c);
    std::printf("%-12s %10lld", obs::cause_name(cause),
                static_cast<long long>(r.totals[c]));
    if (cause != obs::Cause::kAsleep) {
      std::printf(" %7.1f%%", 100.0 * r.share(cause));
    }
    std::printf("\n");
  }
  std::printf("top cause: %s (%.1f%% of %lld stall slots)\n",
              obs::cause_name(r.top_cause()),
              100.0 * r.share(r.top_cause()),
              static_cast<long long>(r.total_stall()));
  if (r.exact_ok()) {
    std::printf("invariant OK: causes sum to decision latency for every "
                "decided node\n");
  } else {
    std::printf("invariant FAILED: %zu of %zu decided nodes do not sum "
                "to their recorded latency\n",
                r.decided_nodes - r.exact_nodes, r.decided_nodes);
  }
}

int cmd_summarize(const std::vector<std::string>& args,
                  const obs::ExplainConfig& base, bool json,
                  const std::string& export_spec) {
  if (args.size() != 1) return usage_error("summarize takes one trace");
  obs::ParsedTraceFile log;
  if (!load(args[0], log)) return 2;

  obs::ExplainConfig config = base;
  config.collect_spans = !export_spec.empty();
  const obs::ExplainReport report = obs::explain_trace(log.events, config);

  if (json) {
    std::fputs(obs::explain_doc(report).render(obs::json::Layout::kBlock)
                   .c_str(),
               stdout);
  } else {
    std::printf("%s: %s %s\n", args[0].c_str(),
                log.binary ? "binary" : "jsonl",
                report.stats.one_line().c_str());
    print_report(report);
  }
  if (!export_spec.empty()) {
    const std::string kChrome = "chrome:";
    if (export_spec.rfind(kChrome, 0) != 0 ||
        export_spec.size() == kChrome.size()) {
      return usage_error("unknown --export format (expected chrome:PATH)");
    }
    const std::string out = export_spec.substr(kChrome.size());
    if (!obs::write_explain_chrome_file(out, report)) {
      std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
      return 2;
    }
    if (!json) {
      std::printf("chrome icicle: %zu nodes -> %s (open in "
                  "ui.perfetto.dev)\n",
                  report.nodes.size(), out.c_str());
    }
  }
  return report.exact_ok() ? 0 : 1;
}

int cmd_node(const std::vector<std::string>& args,
             const obs::ExplainConfig& config, bool json) {
  if (args.size() != 2) return usage_error("node takes <id> <trace>");
  char* end = nullptr;
  const unsigned long id = std::strtoul(args[0].c_str(), &end, 10);
  if (end == args[0].c_str() || *end != '\0') {
    return usage_error("node id must be a number");
  }
  obs::ParsedTraceFile log;
  if (!load(args[1], log)) return 2;
  const obs::ExplainReport report = obs::explain_trace(log.events, config);
  for (const obs::NodeAttribution& n : report.nodes) {
    if (n.node != static_cast<obs::NodeId>(id)) continue;
    if (json) {
      obs::json::Doc doc;
      doc.add("node", n.node);
      doc.add("wake", n.wake_slot);
      doc.add("decision", n.decision_slot);
      doc.add("latency", n.latency());
      doc.add("color", n.final_color);
      doc.add("resets", n.resets);
      doc.add("exact", n.exact());
      for (std::size_t c = 0; c < obs::kNumCauses; ++c) {
        doc.add(std::string("cause.") +
                    obs::cause_name(static_cast<obs::Cause>(c)),
                n.causes[c]);
      }
      std::fputs(doc.render(obs::json::Layout::kBlock).c_str(), stdout);
      return 0;
    }
    std::printf("node %u: wake %lld decision %lld latency %lld color %d "
                "resets %u%s\n",
                n.node, static_cast<long long>(n.wake_slot),
                static_cast<long long>(n.decision_slot),
                static_cast<long long>(n.latency()), n.final_color,
                n.resets, n.exact() ? " (exact)" : "");
    std::printf("%-12s %8s %8s %8s %8s\n", "cause", "total", "a0", "ai",
                "r");
    for (std::size_t c = 0; c < obs::kNumCauses; ++c) {
      std::printf("%-12s %8lld %8lld %8lld %8lld\n",
                  obs::cause_name(static_cast<obs::Cause>(c)),
                  static_cast<long long>(n.causes[c]),
                  static_cast<long long>(n.by_phase[0][c]),
                  static_cast<long long>(n.by_phase[1][c]),
                  static_cast<long long>(n.by_phase[2][c]));
    }
    return 0;
  }
  std::fprintf(stderr, "error: node %lu not in trace\n", id);
  return 2;
}

int cmd_diff(const std::vector<std::string>& args,
             const obs::ExplainConfig& config, bool json,
             const obs::ExplainDiffOptions& options) {
  if (args.size() != 2) return usage_error("diff takes <traceA> <traceB>");
  obs::ParsedTraceFile log_a;
  obs::ParsedTraceFile log_b;
  if (!load(args[0], log_a) || !load(args[1], log_b)) return 2;
  const obs::ExplainReport a = obs::explain_trace(log_a.events, config);
  const obs::ExplainReport b = obs::explain_trace(log_b.events, config);
  const obs::ExplainDiff diff = obs::diff_explain(a, b, options);
  if (json) {
    std::fputs(obs::explain_diff_doc(diff).render(obs::json::Layout::kBlock)
                   .c_str(),
               stdout);
    return 0;
  }
  std::printf("A %s: %zu decided nodes, mean latency %.2f\n",
              args[0].c_str(), diff.nodes_a, diff.mean_latency_a);
  std::printf("B %s: %zu decided nodes, mean latency %.2f\n",
              args[1].c_str(), diff.nodes_b, diff.mean_latency_b);
  std::printf("speedup (A/B): %.2fx\n", diff.speedup);
  std::printf("%-12s %9s %9s %9s %20s %s\n", "cause", "mean A", "mean B",
              "delta", "ci95", "significant");
  for (const obs::CauseDelta& d : diff.causes) {
    std::printf("%-12s %9.2f %9.2f %+9.2f [%8.2f,%8.2f ] %s\n",
                obs::cause_name(d.cause), d.mean_a, d.mean_b, d.delta_mean,
                d.ci_lo, d.ci_hi, d.significant ? "yes" : "no");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage_error("missing subcommand");
  const std::string cmd = argv[1];

  // Positionals follow the subcommand and precede any flags; hand the
  // remaining `--` tokens to CliFlags.
  std::vector<std::string> args;
  int i = 2;
  for (; i < argc && std::string(argv[i]).rfind("--", 0) != 0; ++i) {
    args.emplace_back(argv[i]);
  }
  std::vector<const char*> flag_argv = {argv[0]};
  for (; i < argc; ++i) flag_argv.push_back(argv[i]);

  CliFlags flags;
  flags.add_int("kappa2", 0, "the run's kappa2 (0 = unknown)");
  flags.add_int("passive-slots", 0,
                "passive-listen prefix of each A_i phase, "
                "Params::passive_slots() (0 = unknown)");
  flags.add_bool("json", false, "flat machine-readable output");
  flags.add_string("export", "",
                   "summarize: write a per-node cause-span icicle; "
                   "format chrome:PATH");
  flags.add_int("resamples", 1000, "diff: bootstrap resampling rounds");
  flags.add_int("seed", 0x5EEDED, "diff: bootstrap seed");
  flags.add_double("confidence", 0.95, "diff: CI confidence level");
  if (!flags.parse(static_cast<int>(flag_argv.size()), flag_argv.data())) {
    return usage_error(flags.error().c_str());
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage("urn_explain").c_str());
    return 0;
  }

  obs::ExplainConfig config;
  config.kappa2 = static_cast<std::uint32_t>(
      std::max<std::int64_t>(0, flags.get_int("kappa2")));
  config.passive_slots =
      std::max<std::int64_t>(0, flags.get_int("passive-slots"));
  const bool json = flags.get_bool("json");

  if (cmd == "summarize") {
    return cmd_summarize(args, config, json, flags.get_string("export"));
  }
  if (cmd == "node") return cmd_node(args, config, json);
  if (cmd == "diff") {
    obs::ExplainDiffOptions options;
    options.resamples = static_cast<std::size_t>(
        std::max<std::int64_t>(0, flags.get_int("resamples")));
    options.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
    options.confidence = flags.get_double("confidence");
    return cmd_diff(args, config, json, options);
  }
  return usage_error(("unknown subcommand '" + cmd + "'").c_str());
}

/// \file urn_trace.cpp
/// \brief Trace analyzer CLI: replay an event log recorded by a traced
///        run (JSONL or compact binary, auto-detected) and (a) validate
///        every node's Fig. 2 walk, (b) print per-node timelines,
///        (c) re-derive the per-window metrics CSV, (d) export a
///        Perfetto / chrome://tracing timeline or the JSONL form.
///
/// Examples:
///   urn_trace --log run.bin                        # summary + validation
///   urn_trace --log run.jsonl                      # JSONL, auto-detected
///   urn_trace --log run.bin --kappa2 12            # also check tc(κ₂+1)
///   urn_trace --log run.bin --timelines            # per-node histories
///   urn_trace --log run.bin --metrics-out m.csv --window 64
///   urn_trace --log run.bin --latency-budget 40000     # Thm 3 replay
///   urn_trace --log run.bin --export chrome:run.json   # open in Perfetto
///   urn_trace --log run.bin --export jsonl:run.jsonl   # URNB -> JSONL
///
/// Exit status: 0 when the log passes every enabled check, 1 when
/// violations were found, 2 on usage / I/O errors (unreadable log,
/// malformed header / first line, unknown export format).

#include <algorithm>
#include <cstdio>
#include <string>

#include "obs/bintrace.hpp"
#include "obs/chrome.hpp"
#include "obs/explain.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "obs/trace.hpp"
#include "support/cli.hpp"

int main(int argc, char** argv) {
  using namespace urn;

  CliFlags flags;
  flags.add_string("log", "",
                   "event log to analyze, JSONL or binary (required)");
  flags.add_int("kappa2", 0,
                "the run's kappa2; enables the R -> A_{tc(k2+1)} "
                "multiple-of check (0 = skip)");
  flags.add_bool("timelines", false, "print one line per node");
  flags.add_bool("stats", false,
                 "print one line of per-kind event counts + slot range "
                 "and exit (no validation)");
  flags.add_int("max-violations", 10, "violations to print in detail");
  flags.add_string("metrics-out", "",
                   "re-derive the per-window metrics series from the log "
                   "and write it as CSV here");
  flags.add_int("window", 1, "window width in slots for --metrics-out");
  flags.add_int("latency-budget", 0,
                "per-node Theorem 3 slot budget; replays the online "
                "invariant monitor over the log (0 = skip)");
  flags.add_string("export", "",
                   "export the log: chrome:PATH writes Chrome trace-event "
                   "JSON for Perfetto / chrome://tracing, jsonl:PATH the "
                   "JSONL event log");

  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n%s", flags.error().c_str(),
                 flags.usage("urn_trace").c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage("urn_trace").c_str());
    return 0;
  }
  const std::string path = flags.get_string("log");
  if (path.empty()) {
    std::fprintf(stderr, "error: --log is required\n%s",
                 flags.usage("urn_trace").c_str());
    return 2;
  }

  const obs::ParsedTraceFile log = obs::read_trace_file(path);
  if (!log.ok) {
    std::fprintf(stderr, "error: %s\n", log.error.c_str());
    return 2;
  }
  if (flags.get_bool("stats")) {
    // The quick indexer (shared with urn_explain): per-kind counts and
    // slot range, one line, no validation.
    const obs::TraceStats stats = obs::compute_trace_stats(log.events);
    std::printf("%s: %s %s\n", path.c_str(),
                log.binary ? "binary" : "jsonl", stats.one_line().c_str());
    return 0;
  }
  std::printf("%s: %s, %zu records, %zu events, %zu malformed\n",
              path.c_str(), log.binary ? "binary" : "jsonl", log.records,
              log.events.size(), log.bad);
  if (log.dropped != 0) {
    std::printf("ring capture: %llu earlier events dropped\n",
                static_cast<unsigned long long>(log.dropped));
  }

  // ---- per-kind totals (the shared indexer) -------------------------------
  const obs::TraceStats stats = obs::compute_trace_stats(log.events);
  const obs::Slot last_slot = std::max<obs::Slot>(0, stats.last_slot);
  std::printf("slots [0, %lld]:", static_cast<long long>(last_slot));
  for (std::size_t k = 0; k < obs::kNumEventKinds; ++k) {
    if (stats.by_kind[k] != 0) {
      std::printf(" %s=%zu", obs::kind_name(static_cast<obs::EventKind>(k)),
                  stats.by_kind[k]);
    }
  }
  std::printf("\n");

  // ---- per-node timelines -------------------------------------------------
  const auto timelines = obs::build_timelines(log.events);
  std::size_t decided = 0;
  obs::Slot max_latency = 0;
  for (const obs::NodeTimeline& t : timelines) {
    if (t.decided()) {
      ++decided;
      max_latency = std::max(max_latency, t.latency());
    }
  }
  std::printf("nodes: %zu seen, %zu decided, max T_v %lld\n",
              timelines.size(), decided,
              static_cast<long long>(max_latency));
  if (flags.get_bool("timelines")) {
    for (const obs::NodeTimeline& t : timelines) {
      std::printf("  node %-5u wake %-7lld decide %-7lld T %-7lld "
                  "color %-4d tx %-6llu rx %-6llu resets %-4llu phases ",
                  t.node, static_cast<long long>(t.wake_slot),
                  static_cast<long long>(t.decision_slot),
                  static_cast<long long>(t.latency()), t.final_color,
                  static_cast<unsigned long long>(t.transmissions),
                  static_cast<unsigned long long>(t.deliveries),
                  static_cast<unsigned long long>(t.resets));
      for (std::size_t i = 0; i < t.phases.size(); ++i) {
        const obs::Event& p = t.phases[i];
        if (i != 0) std::printf(">");
        if (p.phase == static_cast<std::uint8_t>(obs::PhaseCode::kRequest)) {
          std::printf("R");
        } else if (p.phase ==
                   static_cast<std::uint8_t>(obs::PhaseCode::kVerify)) {
          std::printf("A%d", p.color);
        } else {
          std::printf("C%d", p.color);
        }
      }
      std::printf("\n");
    }
  }

  // ---- optional metrics re-derivation ------------------------------------
  const std::string metrics_out = flags.get_string("metrics-out");
  if (!metrics_out.empty()) {
    obs::MetricsSink metrics(flags.get_int("window"));
    for (const obs::Event& e : log.events) metrics.record(e);
    const obs::TimeSeries series = metrics.finish(last_slot + 1);
    if (!series.write_csv_file(metrics_out)) {
      std::fprintf(stderr, "error: cannot write %s\n", metrics_out.c_str());
      return 2;
    }
    std::printf("metrics: %zu windows of %lld slots -> %s "
                "(peak collisions/window %llu)\n",
                series.size(), static_cast<long long>(series.window()),
                metrics_out.c_str(),
                static_cast<unsigned long long>(series.peak_collisions()));
  }

  // ---- optional export ----------------------------------------------------
  const std::string export_spec = flags.get_string("export");
  if (!export_spec.empty()) {
    const std::size_t colon = export_spec.find(':');
    const std::string format = export_spec.substr(0, colon);
    const std::string out =
        colon == std::string::npos ? "" : export_spec.substr(colon + 1);
    if ((format != "chrome" && format != "jsonl") || out.empty()) {
      std::fprintf(stderr,
                   "error: unknown --export format '%s' "
                   "(expected chrome:PATH or jsonl:PATH)\n",
                   export_spec.c_str());
      return 2;
    }
    const bool jsonl = format == "jsonl";
    if (!(jsonl ? obs::write_jsonl_file(out, log.events)
                : obs::write_chrome_trace_file(out, log.events))) {
      std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
      return 2;
    }
    if (jsonl) {
      std::printf("jsonl: %zu events -> %s\n", log.events.size(),
                  out.c_str());
    } else {
      std::printf("chrome trace: %zu events -> %s (open in ui.perfetto.dev "
                  "or chrome://tracing)\n",
                  log.events.size(), out.c_str());
    }
  }

  // ---- online-monitor replay ---------------------------------------------
  const auto kappa2 =
      static_cast<std::uint32_t>(std::max<std::int64_t>(
          0, flags.get_int("kappa2")));
  const auto latency_budget = static_cast<obs::Slot>(
      std::max<std::int64_t>(0, flags.get_int("latency-budget")));
  std::uint64_t monitor_violations = 0;
  if (latency_budget > 0) {
    obs::MonitorConfig config;
    config.kappa2 = kappa2;
    config.latency_budget = latency_budget;
    obs::InvariantMonitorSink monitor(std::move(config));
    for (const obs::Event& e : log.events) monitor.record(e);
    monitor.flush();
    const obs::MonitorReport mon = monitor.report();
    obs::print_monitor_report(mon, stdout);
    monitor_violations = mon.total_violations();
  }

  // ---- Fig. 2 legality ----------------------------------------------------
  const obs::Fig2Report report = obs::validate_fig2(log.events, kappa2);
  std::printf("fig2: %zu nodes, %zu transitions checked, %zu violations\n",
              report.nodes_checked, report.transitions_checked,
              report.violations.size());
  const auto max_print = static_cast<std::size_t>(
      std::max<std::int64_t>(0, flags.get_int("max-violations")));
  for (std::size_t i = 0;
       i < report.violations.size() && i < max_print; ++i) {
    const obs::Fig2Violation& v = report.violations[i];
    std::printf("  VIOLATION node %u slot %lld: %s\n", v.node,
                static_cast<long long>(v.slot), v.what.c_str());
  }
  if (report.violations.size() > max_print) {
    std::printf("  ... and %zu more\n",
                report.violations.size() - max_print);
  }
  if (!report.ok() || monitor_violations != 0) return 1;
  std::printf("OK: every node's trajectory is a legal Fig. 2 walk\n");
  return 0;
}

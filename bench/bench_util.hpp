/// \file bench_util.hpp
/// \brief Shared helpers for the experiments behind `urn_repro` (E1–E15,
///        A1–A3 and the regression gate) and for m2_macro.
///
/// Besides the sweep's parameters, the banner and the up-front check of
/// the output directories (`unwritable_output_dir`), this provides the
/// two observability hooks every experiment shares:
///
///  * `BenchSummary` — machine-readable run summaries.  Each experiment
///    fills one with its scenario parameters and headline metrics and
///    calls `emit()`, which writes `BENCH_<name>.json` into the directory
///    named by the `URN_BENCH_JSON` environment variable (mirroring the
///    `URN_BENCH_CSV` convention of analysis::Table).  Keys are dotted
///    paths ("scenario.n", "medium.collisions"), values JSON scalars.
///
///  * `Args` — the parsed flags every experiment receives (urn_repro's
///    `--help` lists them).  It records one representative run as a URNB
///    event log (`urn_trace` reads it; `--export jsonl:PATH` converts it),
///    a per-window metrics CSV, an online invariant check (exit 2 on
///    violation), postmortem bundles (obs/postmortem.hpp, `urn_postmortem`)
///    and the `explain.*` causal attribution (obs/explain.hpp), feeds
///    Chrome-trace span timelines and live telemetry (obs/telemetry.hpp,
///    `urn_top`), and fans trial loops out over `--jobs` workers with
///    bit-identical results (the resolved count is the `jobs` key, which
///    the regression diff skips with the `.ns` wall-clock keys).
///
///  * `ledger_record` / `ledger_emit` — feed each trial's `RunResult`
///    into a `Ledger` (named `Samples`) and export the percentile
///    summaries (p50/p95/max latency, max color, collisions, resets)
///    into the `BenchSummary`, so `BENCH_<name>.json` carries
///    distributions.

#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>

#include <unistd.h>

#include "analysis/experiment.hpp"
#include "analysis/run_flags.hpp"
#include "analysis/table.hpp"
#include "core/params.hpp"
#include "core/runner.hpp"
#include "exec/chunk.hpp"
#include "exec/parallel.hpp"
#include "graph/generators.hpp"
#include "obs/explain.hpp"
#include "obs/json.hpp"
#include "obs/monitor.hpp"
#include "obs/profile.hpp"
#include "obs/telemetry.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace urn::bench {

/// The calibrated practical parameters of a sweep deployment, built on the
/// Δ, κ₁ and κ₂ of `core::measure_bounds`.  The sweep refuses a κ that is
/// not exact, here and nowhere else: a greedy lower bound would void
/// Theorems 2–5 and shrink every practical window, and no sweep
/// deployment comes near the exact limit.
inline core::Params sweep_params(const graph::Graph& g) {
  const core::GraphBounds b = core::measure_bounds(g);
  URN_CHECK_MSG(b.exact, "a 2-hop neighbourhood of this deployment exceeds "
                         "the exact kappa limit");
  return core::Params::practical(g.num_nodes(), b.delta, b.kappa1, b.kappa2);
}

/// The first of `URN_BENCH_CSV` and `URN_BENCH_JSON` that is set,
/// non-empty and not a directory that accepts a file, or "" when both are
/// usable.  A probe file is created in each named directory and removed at
/// once, so a binary can refuse before any work and leave nothing behind.
inline std::string unwritable_output_dir() {
  for (const char* var : {"URN_BENCH_CSV", "URN_BENCH_JSON"}) {
    const char* dir = std::getenv(var);
    if (dir == nullptr || *dir == '\0') continue;
    std::string probe = std::string(dir) + "/.urn_probe_XXXXXX";
    const int fd = ::mkstemp(probe.data());
    if (fd < 0) return dir;
    ::close(fd);
    ::unlink(probe.c_str());
  }
  return "";
}

/// Print a one-line banner common to all experiment binaries.
inline void banner(const char* id, const char* claim) {
  std::printf("[%s] %s\n\n", id, claim);
}

/// Machine-readable experiment summary; see the file comment.  Values go
/// through the flat-JSON codec (obs/json.hpp): doubles as `%.6g`,
/// strings quoted, the file in the block layout.
class BenchSummary {
 public:
  explicit BenchSummary(std::string name) : name_(std::move(name)) {}

  /// Append `key` with an integer, double, bool or string value.
  template <typename T>
  void set(const std::string& key, T v) {
    doc_.add(key, v);
  }

  /// Record one run's medium statistics under `<prefix>.*`.
  void set_medium(const std::string& prefix, const radio::RunStats& s) {
    set(prefix + ".slots_run", static_cast<std::int64_t>(s.slots_run));
    set(prefix + ".transmissions", s.transmissions);
    set(prefix + ".deliveries", s.deliveries);
    set(prefix + ".collisions", s.collisions);
    set(prefix + ".dropped", s.dropped);
    set(prefix + ".all_decided", s.all_decided);
  }

  /// Snapshot the profile registry (`obs::profile_registry`) under
  /// "profile.*", and — when a telemetry-enabled run populated it — the
  /// global telemetry registry under "telemetry.*" (counters, gauges, and
  /// histogram count/sum/p50/p95/max summaries).  The bench regression
  /// diff skips the whole "telemetry." class, like ".ns": telemetry
  /// totals include wall-clock and scheduling-dependent quantities, so
  /// they are reported, never gated on.
  void add_profile() {
    for (const auto& [k, v] : obs::profile_registry().snapshot().counters) {
      set("profile." + k, v);
    }
    const auto& reg = obs::telemetry::Registry::global();
    if (!reg.empty()) {
      const obs::telemetry::Snapshot snap = reg.snapshot();
      for (const auto& [k, v] : snap.counters) set("telemetry." + k, v);
      for (const auto& [k, v] : snap.gauges) set("telemetry." + k, v);
      for (const auto& [k, h] : snap.histograms) {
        set("telemetry." + k + ".count", h.count);
        set("telemetry." + k + ".sum", h.sum);
        set("telemetry." + k + ".p50", h.quantile(0.50));
        set("telemetry." + k + ".p95", h.quantile(0.95));
        set("telemetry." + k + ".max", h.max_bound());
      }
    }
  }

  /// Write `<dir>/BENCH_<name>.json` when URN_BENCH_JSON names a
  /// directory, and say so on `note`; silently a no-op otherwise (text
  /// output stands alone).
  void emit(std::FILE* note = stdout) const {
    const char* dir = std::getenv("URN_BENCH_JSON");
    if (dir == nullptr || *dir == '\0') return;
    const std::string path =
        std::string(dir) + "/BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "BenchSummary: cannot write %s\n", path.c_str());
      return;
    }
    const std::string json = doc_.render(obs::json::Layout::kBlock);
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::fprintf(note, "(json summary -> %s)\n", path.c_str());
  }

 private:
  std::string name_;
  obs::json::Doc doc_;
};

/// The parsed command line every experiment receives from `urn_repro`:
/// the flags shared with urn_sim plus `--spans-out` and `--explain`, and
/// the collectors `main` owns for them (null when off).
struct Args {
  analysis::RunFlags run;
  obs::SpanSink* spans = nullptr;
  obs::telemetry::Registry* telemetry = nullptr;
  obs::telemetry::PoolProbe* pool = nullptr;
  obs::MemorySink* explain_events = nullptr;  ///< --explain capture

  /// Resolved worker count (0 expanded to the hardware thread count).
  [[nodiscard]] std::size_t resolved_jobs() const {
    return exec::resolve_jobs(run.jobs);
  }
  /// Executor options for analysis::run_core_trials.  The per-run flags
  /// (log, metrics, monitor, postmortem) go only to `run_traced`.
  [[nodiscard]] analysis::TrialExecOptions exec() const {
    analysis::TrialExecOptions opts;
    opts.jobs = run.jobs;
    opts.spans = spans;
    opts.telemetry = telemetry;
    return opts;
  }
  /// Executor options for an experiment's own loop (exec::map_trials).
  [[nodiscard]] exec::ExecOptions executor() const {
    return {run.jobs, 0, spans, pool};
  }
  /// True when a flag asks for the representative run: a log, a metrics
  /// series, the monitor, a postmortem bundle or the attribution.
  [[nodiscard]] bool enabled() const {
    return explain_events != nullptr || run.monitor ||
           !run.trace_bin.empty() || !run.metrics_out.empty() ||
           run.postmortem().enabled();
  }
};

/// The experiments of urn_repro's table, one per file of bench/; each
/// returns its exit status.
int e1_correctness(const Args& args);
int e2_time_vs_delta(const Args& args);
int e3_time_vs_n(const Args& args);
int e4_colors(const Args& args);
int e5_locality(const Args& args);
int e6_wakeup(const Args& args);
int e7_constants(const Args& args);
int e8_big(const Args& args);
int e9_baselines(const Args& args);
int e10_estimates(const Args& args);
int e11_message_cost(const Args& args);
int e12_misaligned(const Args& args);
int e13_tdma(const Args& args);
int e14_leader_election(const Args& args);
int e15_faults(const Args& args);
int a1_ablation_resets(const Args& args);
int a2_ablation_alpha(const Args& args);
int a3_ablation_queue(const Args& args);
int bench_gate(const Args& args);

/// Run one traced execution and write the requested artifacts.
inline core::RunResult run_traced(const Args& args,
                                  const graph::Graph& g,
                                  const core::Params& params,
                                  const radio::WakeSchedule& schedule,
                                  std::uint64_t seed,
                                  radio::MediumOptions medium = {}) {
  core::TraceOptions opts = args.run.trace_options();
  opts.telemetry = args.telemetry;
  opts.memory = args.explain_events;
  const core::RunResult run = core::run_coloring_traced(
      g, params, schedule, seed, opts, /*max_slots=*/0, medium);
  analysis::report_artifacts(args.run, run, params.kappa2);
  if (run.monitor.has_value()) {
    if (!run.monitor->ok()) {
      std::fprintf(stderr, "monitor: INVARIANT VIOLATIONS\n");
      obs::print_first_violation(*run.monitor, stderr);
      obs::print_monitor_report(*run.monitor, stderr);
      if (!run.bundle.empty()) {
        std::fprintf(stderr,
                     "postmortem bundle: %s (inspect with urn_postmortem)\n",
                     run.bundle.c_str());
      }
      std::exit(2);
    }
    std::printf("(monitor: %llu events, %zu nodes, 0 violations)\n",
                static_cast<unsigned long long>(run.monitor->events_seen),
                run.monitor->nodes_seen);
  }
  return run;
}

/// Export the representative traced run's causal latency attribution
/// (obs/explain.hpp) as `explain.*` keys of the bench summary.  No-op
/// unless `--explain` captured events (so call sites can wire it
/// unconditionally).  The run parameters supply what the trace alone
/// cannot: κ₂ and the A_i passive-listen prefix.  `urn_bench_diff` puts
/// the whole key family into its own tolerance class (`--explain-tol`,
/// default exact) — the attribution is a pure function of the trace, so
/// fixed-seed baselines stay bit-identical.
inline void explain_emit(BenchSummary& summary, const Args& args,
                         const core::Params& params) {
  if (args.explain_events == nullptr || args.explain_events->events().empty()) {
    return;
  }
  obs::ExplainConfig config;
  config.kappa2 = params.kappa2;
  config.passive_slots = params.passive_slots();
  const obs::ExplainReport report =
      obs::explain_trace(args.explain_events->events(), config);
  for (const obs::json::Entry& e : obs::explain_doc(report).entries) {
    if (!e.numeric) {
      summary.set(e.key, e.text);
    } else if (e.value ==
               static_cast<double>(static_cast<std::int64_t>(e.value))) {
      summary.set(e.key, static_cast<std::int64_t>(e.value));
    } else {
      summary.set(e.key, e.value);
    }
  }
  std::printf("(explain: %zu nodes, top cause %s, accounting invariant %s "
              "-> explain.* keys)\n",
              report.nodes.size(), obs::cause_name(report.top_cause()),
              report.exact_ok() ? "OK" : "FAILED");
}

/// Per-trial samples of named metrics ("latency.max", "color.max", ...)
/// across a sweep; `ledger_emit` exports their order statistics.
using Ledger = std::map<std::string, Samples>;

/// Feed one trial's headline metrics into the cross-run ledger.
inline void ledger_record(Ledger& ledger, const core::RunResult& run) {
  ledger["latency.max"].add(static_cast<double>(run.max_latency()));
  ledger["latency.mean"].add(run.mean_latency());
  ledger["color.max"].add(static_cast<double>(run.max_color));
  ledger["collisions.total"].add(static_cast<double>(run.medium.collisions));
  ledger["resets.total"].add(static_cast<double>(run.total_resets));
  ledger["slots.run"].add(static_cast<double>(run.medium.slots_run));
}

/// Feed an `analysis::CoreAggregate`'s per-trial samples into the
/// ledger (the experiment binaries aggregate through `run_core_trials`,
/// so the trial-level samples already exist).
inline void ledger_from_aggregate(Ledger& ledger,
                                  const analysis::CoreAggregate& agg) {
  ledger["latency.max"].merge(agg.max_latency);
  ledger["latency.mean"].merge(agg.mean_latency);
  ledger["latency.p95"].merge(agg.p95_latency);
  ledger["color.max"].merge(agg.max_color);
  ledger["leaders"].merge(agg.leaders);
  ledger["resets.per_node"].merge(agg.resets_per_node);
  ledger["slots.run"].merge(agg.slots_run);
}

/// Export every ledger metric with samples into the bench summary as
/// `<prefix>.<metric>.{trials,min,mean,p50,p95,max}`, in name order.
inline void ledger_emit(BenchSummary& summary, const Ledger& ledger,
                        const std::string& prefix = "ledger") {
  for (const auto& [metric, s] : ledger) {
    if (s.count() == 0) continue;
    const std::string base = prefix + "." + metric;
    summary.set(base + ".trials", static_cast<std::uint64_t>(s.count()));
    summary.set(base + ".min", s.min());
    summary.set(base + ".mean", s.mean());
    summary.set(base + ".p50", s.percentile(50.0));
    summary.set(base + ".p95", s.percentile(95.0));
    summary.set(base + ".max", s.max());
  }
}

}  // namespace urn::bench

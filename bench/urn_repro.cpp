/// \file urn_repro.cpp
/// \brief The reproduction runner: every experiment of EXPERIMENTS.md
///        (E1–E15, A1–A3) and the fixed-seed regression gate behind one
///        command line.
///
///   urn_repro e4                 # one experiment
///   urn_repro all --jobs 4       # every experiment, in table order
///   urn_repro gate --explain     # the scenario behind bench_regression
///   urn_repro --help             # the flags and the ids
///
/// Every experiment receives the same parsed flags (`bench::Args`), and
/// `--jobs` fans every trial loop out over the deterministic executor, so
/// tables are bit-identical for every value.  The flags that record one
/// representative run (`--trace-bin`, `--metrics-out`, `--monitor`,
/// `--explain`, the postmortem flags) go only to an experiment that
/// records one, never to `all`.  Each experiment's wall time goes to
/// stderr and, with URN_BENCH_JSON set, into `BENCH_repro.json`
/// (`<id>.wall.ns`, `total.wall.ns`).

#include <chrono>
#include <optional>

#include "bench_util.hpp"
#include "obs/chrome.hpp"

namespace urn::bench {
namespace {

struct Experiment {
  const char* id;
  int (*run)(const Args&);
  bool records_run;  ///< takes the per-run flags
  const char* claim;
};

constexpr Experiment kExperiments[] = {
    {"e1", e1_correctness, true, "correct coloring w.h.p. (Thm 2/5)"},
    {"e2", e2_time_vs_delta, false, "time linear in Delta (Thm 3/Cor 2)"},
    {"e3", e3_time_vs_n, false, "time logarithmic in n (Thm 3/Cor 2)"},
    {"e4", e4_colors, false, "O(Delta) colors (Thm 5/Cor 2) + baselines"},
    {"e5", e5_locality, false, "locality of colors (Thm 4)"},
    {"e6", e6_wakeup, true, "arbitrary wake-up patterns (Sect. 2)"},
    {"e7", e7_constants, false, "smaller constants suffice (Sect. 4)"},
    {"e8", e8_big, false, "obstacle BIGs, unit ball graphs (Cor 3)"},
    {"e9", e9_baselines, false, "vs rand-verify, message passing"},
    {"e10", e10_estimates, false, "mis-estimated n and Delta (Sect. 6)"},
    {"e11", e11_message_cost, false, "channel usage per node"},
    {"e12", e12_misaligned, false, "non-aligned slots (Sect. 2)"},
    {"e13", e13_tdma, false, "TDMA schedules from colorings"},
    {"e14", e14_leader_election, false, "leader election as MIS"},
    {"e15", e15_faults, true, "fading drops and leader crashes"},
    {"a1", a1_ablation_resets, false, "reset-policy ablation"},
    {"a2", a2_ablation_alpha, false, "passive-phase ablation"},
    {"a3", a3_ablation_queue, false, "leader-queue ablation"},
    {"gate", bench_gate, true, "fixed-seed regression scenario"},
};

int fail(const std::string& message) {
  std::fprintf(stderr, "error: %s (see urn_repro --help)\n", message.c_str());
  return 2;
}

}  // namespace
}  // namespace urn::bench

int main(int argc, char** argv) {
  using namespace urn;
  using bench::kExperiments;
  CliFlags flags;
  analysis::RunFlags::declare(flags);
  flags.add_string("spans-out", "",
                   "record the executor workers' trial chunks as a "
                   "wall-clock Chrome trace-event JSON timeline");
  flags.add_bool("explain", false,
                 "attribute the representative run's per-node decision "
                 "latency to causes and export explain.* keys into "
                 "BENCH_<name>.json");

  // The id comes first; the flags follow it.
  const std::string id = argc > 1 ? argv[1] : "";
  const bool has_id = !id.empty() && id[0] != '-';
  if (!flags.parse(has_id ? argc - 1 : argc, has_id ? argv + 1 : argv)) {
    return bench::fail(flags.error());
  }
  if (flags.help_requested()) {
    std::printf("%s\nids (`all` runs them in this order):\n",
                flags.usage("urn_repro <id>").c_str());
    for (const auto& e : kExperiments) {
      std::printf("  %-5s %s%s\n", e.id, e.claim,
                  e.records_run ? " [records a run]" : "");
    }
    return 0;
  }
  std::vector<const bench::Experiment*> selected;
  for (const auto& e : kExperiments) {
    if (id == "all" || id == e.id) selected.push_back(&e);
  }
  if (selected.empty()) {
    return bench::fail(has_id ? "unknown experiment id '" + id + "'"
                              : "missing experiment id");
  }
  const std::optional<analysis::RunFlags> run =
      analysis::RunFlags::read(flags);
  if (!run.has_value()) return bench::fail(flags.error());
  bench::Args args;
  args.run = *run;
  std::optional<obs::MemorySink> explain_events;
  if (flags.get_bool("explain")) {
    args.explain_events = &explain_events.emplace();
  }
  if (args.enabled() && (id == "all" || !selected[0]->records_run)) {
    return bench::fail("--trace-bin, --metrics-out, --monitor, --explain "
                       "and the postmortem flags record one representative "
                       "run: e1, e6, e15 and gate take them, " +
                       id + " does not");
  }
  const std::string spans_out = flags.get_string("spans-out");
  // The output directories first: the flag check creates its files.
  std::string bad = bench::unwritable_output_dir();
  if (bad.empty()) bad = args.run.unwritable({spans_out});
  if (!bad.empty()) return bench::fail("cannot write " + bad);

  analysis::TelemetrySession telemetry(args.run);
  args.telemetry = telemetry.registry();
  args.pool = telemetry.pool();
  std::optional<obs::SpanSink> spans;
  if (!spans_out.empty()) args.spans = &spans.emplace();

  using Clock = std::chrono::steady_clock;
  constexpr std::chrono::nanoseconds kNs{1};
  bench::BenchSummary walls("repro");
  walls.set("jobs", static_cast<std::uint64_t>(args.resolved_jobs()));
  int status = 0;
  const Clock::time_point start = Clock::now();
  for (const bench::Experiment* e : selected) {
    // The profile counters are process-wide: restart them so that each
    // experiment's BENCH JSON counts its own runs only.
    obs::profile_registry().clear();
    const Clock::time_point t0 = Clock::now();
    const int rc = e->run(args);
    const std::int64_t ns = (Clock::now() - t0) / kNs;
    std::fflush(stdout);
    std::fprintf(stderr, "[%s] wall %.3f s\n", e->id,
                 1e-9 * static_cast<double>(ns));
    walls.set(std::string(e->id) + ".wall.ns", ns);
    if (status == 0) status = rc;
  }
  const std::int64_t total = (Clock::now() - start) / kNs;
  if (selected.size() > 1) {
    std::fprintf(stderr, "[all] wall %.3f s\n",
                 1e-9 * static_cast<double>(total));
  }
  walls.set("total.wall.ns", total);
  walls.emit(stderr);

  if (spans.has_value()) {
    if (obs::write_chrome_spans_file(spans_out, *spans)) {
      std::printf("(spans: %zu -> %s; open in ui.perfetto.dev)\n",
                  spans->size(), spans_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", spans_out.c_str());
    }
  }
  telemetry.finish();
  return status;
}

/// M2 — whole-run engine throughput (node-slots/s).
///
/// M1 micro-benchmarks individual substrate pieces; M2 measures what the
/// ROADMAP north-star actually asks for: how fast a *complete* protocol
/// execution runs end-to-end on the untraced hot path, across an
/// n × Δ × wake-pattern grid on both UDG and obstacle-BIG deployments.
/// Every experiment sweep (E2/E3 n·Δ grids, E8 BIG families) is bounded
/// by this number, so engine hot-path work is invisible without it.
///
/// Each grid cell builds a fixed-seed deployment, runs `core::run_coloring`
/// to quiescence `--reps` times, and reports the best node-slots/s (best
/// of reps = least scheduler noise).  Summary keys split into two classes:
///
///  * exact keys (`m2.<cell>.slots_run`, `.node_slots`, `.delta`, ...):
///    fixed-seed deterministic — the bench regression diff compares them
///    bit-for-bit, so a throughput change can never hide a behavior
///    change;
///  * rate keys (`engine.noderate.<cell>`): wall-clock throughput —
///    `urn_bench_diff` puts every key containing `.noderate.` into the
///    rate tolerance class (presence-checked, value compared only under
///    `--rate-tol`), so committed baselines track throughput without
///    flaking on machine speed.
///
/// `--smoke` shrinks the grid to a few-second fixture scenario (summary
/// name `m2_smoke`, baselined under bench/baseline/); the full grid emits
/// `BENCH_m2_macro.json`.  `--jobs N` fans grid cells out across workers
/// (deterministic exact keys for every N; rates then measure *contended*
/// cores, which the text output flags).
///
/// The `delayed` pattern wakes every node only after a long empty prefix
/// — the wake-gap fast-forward regime: the engine must not pay per-slot
/// cost for slots in which nothing can happen.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/runner.hpp"
#include "exec/parallel.hpp"
#include "graph/generators.hpp"
#include "obs/telemetry.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"

namespace {

using namespace urn;

struct CellSpec {
  std::string family;  ///< "udg" | "big"
  std::size_t n = 0;
  double side = 0.0;
  double radius = 1.5;
  std::size_t walls = 0;  ///< BIG only
  std::string pattern;    ///< "sync" | "uniform" | "delayed"
  std::uint64_t seed = 0;
  /// Hard slot cap (0 = run to quiescence).  The n=100k cells use this:
  /// a capped fixed-slot window keeps the exact keys deterministic while
  /// holding the cell to seconds instead of a full-convergence run.
  radio::Slot max_slots = 0;
};

struct CellResult {
  std::string id;  ///< e.g. "udg.n2048.d67.sync"
  std::uint32_t delta = 0;
  std::int64_t slots_run = 0;
  std::uint64_t transmissions = 0;
  bool all_decided = false;
  std::int64_t node_slots = 0;
  double best_rate = 0.0;  ///< node-slots/s, best over reps
  double seconds = 0.0;    ///< wall clock of the best rep
};

/// Wake slots for all nodes land inside [delay, delay + 2·threshold];
/// the leading `delay` slots are pure wake-gap.
constexpr radio::Slot kDelayedPrefix = 250000;

graph::Graph build_graph(const CellSpec& spec) {
  Rng rng(mix_seed(0x32AC20, spec.seed));
  if (spec.family == "big") {
    auto segs =
        graph::random_walls(spec.walls, spec.side, 1.0, 4.0, rng);
    return graph::random_obstacle_big(spec.n, spec.side, spec.radius,
                                      std::move(segs), rng)
        .graph;
  }
  return graph::random_udg(spec.n, spec.side, spec.radius, rng).graph;
}

radio::WakeSchedule make_schedule(const CellSpec& spec,
                                  const core::Params& params) {
  Rng wrng(mix_seed(0x32ACFE, spec.seed));
  if (spec.pattern == "sync") return radio::WakeSchedule::synchronous(spec.n);
  const radio::Slot window = 2 * params.threshold();
  if (spec.pattern == "uniform") {
    return radio::WakeSchedule::uniform(spec.n, window, wrng);
  }
  // "delayed": uniform window shifted past a long empty prefix.
  const auto base = radio::WakeSchedule::uniform(spec.n, window, wrng);
  std::vector<radio::Slot> slots = base.slots();
  for (radio::Slot& s : slots) s += kDelayedPrefix;
  return radio::WakeSchedule(std::move(slots));
}

CellResult run_cell(const CellSpec& spec, std::size_t reps,
                    obs::telemetry::Registry* telemetry) {
  const graph::Graph g = build_graph(spec);
  const auto delta = std::max(2u, g.max_closed_degree());
  const core::Params params =
      core::Params::practical(spec.n, delta, 5, 12);
  const radio::WakeSchedule schedule = make_schedule(spec, params);

  // With --telemetry-* the reps run probed (zero-event NullSink engine
  // path): exact keys stay bit-identical, only the rates shift by the
  // probe's few-ns-per-slot cost.
  core::TraceOptions topts;
  topts.telemetry = telemetry;

  CellResult r;
  r.id = spec.family + ".n" + std::to_string(spec.n) + ".d" +
         std::to_string(delta) + "." + spec.pattern;
  r.delta = delta;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const core::RunResult run = core::run_coloring_traced(
        g, params, schedule, mix_seed(0x32AC5D, spec.seed), topts,
        spec.max_slots);
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    r.slots_run = static_cast<std::int64_t>(run.medium.slots_run);
    r.transmissions = run.medium.transmissions;
    r.all_decided = run.all_decided;
    r.node_slots = r.slots_run * static_cast<std::int64_t>(spec.n);
    const double rate = static_cast<double>(r.node_slots) / dt.count();
    if (rate > r.best_rate) {
      r.best_rate = rate;
      r.seconds = dt.count();
    }
  }
  return r;
}

std::vector<CellSpec> make_grid(bool smoke) {
  // Side lengths put the measured max closed degree Δ near the label:
  // mean closed degree ≈ n·π·r²/side².  The high-Δ UDG cell (Δ ≥ 64) is
  // the configuration the PR gate tracks.
  std::vector<CellSpec> grid;
  const char* patterns_full[] = {"sync", "uniform", "delayed"};
  const char* patterns_smoke[] = {"sync", "delayed"};
  if (smoke) {
    for (const char* p : patterns_smoke) {
      grid.push_back({"udg", 96, 6.5, 1.5, 0, p, 1});
      grid.push_back({"big", 96, 6.5, 1.5, 12, p, 2});
    }
    // Capped n=100k cell: working set ~100x the L2-resident grid above
    // (4.8 MB of RNG state alone), so cache behavior at scale shows up
    // even in the fixture — the small cap keeps the sanitizer legs fast.
    grid.push_back({"udg", 100000, 210.0, 1.5, 0, "sync", 14, 600});
    return grid;
  }
  for (const char* p : patterns_full) {
    grid.push_back({"udg", 1024, 21.0, 1.5, 0, p, 11});   // Δ ≈ 16
    grid.push_back({"udg", 2048, 14.5, 1.5, 0, p, 12});   // Δ ≥ 64 (gate)
    grid.push_back({"big", 1024, 18.0, 1.5, 40, p, 13});  // walls cut links
  }
  // Memory-scale cell: 100k nodes (~10 MB hot state + RNG streams) in a
  // fixed 12k-slot window.  Quiescence at this n takes minutes; a capped
  // window measures the same hot loop with deterministic exact keys.
  grid.push_back({"udg", 100000, 210.0, 1.5, 0, "sync", 14, 12000});
  return grid;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.add_bool("smoke", false,
                 "few-second fixture grid (summary name m2_smoke)");
  flags.add_int("reps", 0,
                "timed repetitions per cell, best rate wins "
                "(0 = 3, or 1 with --smoke)");
  flags.add_int("jobs", 1,
                "worker threads across grid cells (0 = all hardware "
                "threads); exact keys stay deterministic, rates measure "
                "contended cores when > 1");
  flags.add_string("filter", "",
                   "only run cells whose id contains this substring");
  flags.add_string("trace-bin", "",
                   "after the timed grid, record one extra untimed run of "
                   "the first grid cell as a compact binary event log "
                   "(analyze with urn_trace / urn_explain); never affects "
                   "the timed rates or the summary keys");
  flags.add_bool("progress", false,
                 "print a one-line cells-done/ETA progress meter to "
                 "stderr every telemetry interval");
  flags.add_string("telemetry-out", "",
                   "stream live telemetry snapshots to this JSONL file "
                   "(watch with urn_top --in FILE)");
  flags.add_string("telemetry-prom", "",
                   "rewrite this file as Prometheus text exposition on "
                   "every telemetry snapshot");
  flags.add_int("telemetry-interval", 1000,
                "telemetry / progress snapshot period in milliseconds");
  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n%s", flags.error().c_str(),
                 flags.usage("m2_macro").c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage("m2_macro").c_str());
    return 0;
  }
  if (!flags.check_int("jobs", 0, exec::kMaxJobs) ||
      !flags.check_int("telemetry-interval", 1)) {
    std::fprintf(stderr, "error: %s\n", flags.error().c_str());
    return 2;
  }
  const bool smoke = flags.get_bool("smoke");
  const auto reps = static_cast<std::size_t>(
      flags.get_int("reps") > 0 ? flags.get_int("reps") : (smoke ? 1 : 3));
  const auto jobs = static_cast<std::size_t>(flags.get_int("jobs"));
  const std::string filter = flags.get_string("filter");

  bench::banner("M2", "whole-run engine throughput in node-slots/s "
                      "(UDG and BIG, n x Delta x wake pattern)");

  std::vector<CellSpec> grid = make_grid(smoke);
  if (!filter.empty()) {
    std::vector<CellSpec> kept;
    for (const CellSpec& spec : grid) {
      const std::string id = spec.family + ".n" + std::to_string(spec.n) +
                             "." + spec.pattern;
      if (id.find(filter) != std::string::npos) kept.push_back(spec);
    }
    grid = std::move(kept);
  }
  if (grid.empty()) {
    std::fprintf(stderr, "error: --filter matched no grid cell\n");
    return 2;
  }

  const std::size_t resolved = exec::resolve_jobs(jobs);
  if (resolved > 1) {
    std::printf("note: --jobs %zu — rates below measure contended cores\n",
                resolved);
  }

  // --progress and --telemetry-* share one snapshotter: a cells-done
  // counter feeds the stderr ETA line, and with an export path set the
  // reps additionally run with engine probes into the same registry.
  const bool progress = flags.get_bool("progress");
  analysis::RunFlags telemetry_flags;
  telemetry_flags.jobs = jobs;
  telemetry_flags.telemetry_out = flags.get_string("telemetry-out");
  telemetry_flags.telemetry_prom = flags.get_string("telemetry-prom");
  telemetry_flags.telemetry_interval = flags.get_int("telemetry-interval");
  const std::size_t total_cells = grid.size();
  analysis::TelemetrySession::OnSnapshot meter;
  if (progress) {
    meter = [total_cells](const obs::telemetry::Snapshot& s) {
      const std::uint64_t* found = s.find_counter("m2.cells_done");
      const std::uint64_t done = found != nullptr ? *found : 0;
      const double eta =
          (done > 0 && done < total_cells)
              ? s.uptime_s * static_cast<double>(total_cells - done) /
                    static_cast<double>(done)
              : 0.0;
      std::fprintf(stderr,
                   "\rm2: %llu/%zu cells | %.1fs elapsed | eta %.0fs   ",
                   static_cast<unsigned long long>(done), total_cells,
                   s.uptime_s, eta);
    };
  }
  analysis::TelemetrySession telemetry(telemetry_flags, std::move(meter));
  obs::telemetry::Counter* cells_done = nullptr;
  if (progress || telemetry.registry() != nullptr) {
    obs::telemetry::Registry& reg = obs::telemetry::Registry::global();
    cells_done = &reg.counter("m2.cells_done");
    reg.gauge("m2.cells_total").set(static_cast<std::int64_t>(total_cells));
  }

  // One grid cell per "trial": exact keys are bit-identical for every
  // jobs value (fixed per-cell seeds); only the rates vary with load.
  const std::vector<CellResult> cells = exec::map_trials(
      grid.size(), {jobs, 1, nullptr, telemetry.pool()}, [&](std::size_t i) {
        CellResult r = run_cell(grid[i], reps, telemetry.registry());
        if (cells_done != nullptr) cells_done->add(1);
        return r;
      });

  telemetry.finish();  // final snapshot carries the completed grid
  if (progress) std::fprintf(stderr, "\n");

  bench::BenchSummary summary(smoke ? "m2_smoke" : "m2_macro");
  summary.set("cells", static_cast<std::uint64_t>(cells.size()));
  summary.set("reps", static_cast<std::uint64_t>(reps));
  summary.set("jobs", static_cast<std::uint64_t>(resolved));

  std::printf("%-24s %8s %10s %12s %10s\n", "cell", "Delta", "slots",
              "node-slots", "Mns/s");
  double high_delta_rate = 0.0;
  for (const CellResult& r : cells) {
    std::printf("%-24s %8u %10lld %12lld %10.1f\n", r.id.c_str(), r.delta,
                static_cast<long long>(r.slots_run),
                static_cast<long long>(r.node_slots), r.best_rate / 1e6);
    const std::string cell = "m2." + r.id;
    summary.set(cell + ".delta", r.delta);
    summary.set(cell + ".slots_run", r.slots_run);
    summary.set(cell + ".node_slots", r.node_slots);
    summary.set(cell + ".transmissions", r.transmissions);
    summary.set(cell + ".all_decided", r.all_decided);
    summary.set("engine.noderate." + r.id, r.best_rate);
    if (r.delta >= 64 && r.best_rate > high_delta_rate) {
      high_delta_rate = r.best_rate;
    }
  }
  if (high_delta_rate > 0.0) {
    // The PR-gate headline: best whole-run rate on a Δ ≥ 64 cell.
    summary.set("engine.noderate.headline.highdelta", high_delta_rate);
    std::printf("\nheadline: high-Delta whole-run rate %.1f M node-slots/s\n",
                high_delta_rate / 1e6);
  }
  summary.add_profile();
  summary.emit();

  // --trace-bin: one extra untimed traced run of the first grid cell,
  // after the summary is written, so the emitted keys are identical with
  // and without the flag.  This is the capture the CI throughput-smoke
  // leg feeds to `urn_explain summarize`.
  const std::string trace_bin = flags.get_string("trace-bin");
  if (!trace_bin.empty()) {
    const CellSpec& spec = grid.front();
    const graph::Graph g = build_graph(spec);
    const auto delta = std::max(2u, g.max_closed_degree());
    const core::Params params =
        core::Params::practical(spec.n, delta, 5, 12);
    core::TraceOptions topts;
    topts.events_bin = trace_bin;
    const core::RunResult run = core::run_coloring_traced(
        g, params, make_schedule(spec, params),
        mix_seed(0x32AC5D, spec.seed), topts);
    std::printf("(trace: %llu events -> %s; attribute with urn_explain "
                "summarize %s --kappa2 %u --passive-slots %lld)\n",
                static_cast<unsigned long long>(run.events_recorded),
                trace_bin.c_str(), trace_bin.c_str(), params.kappa2,
                static_cast<long long>(params.passive_slots()));
  }
  return 0;
}

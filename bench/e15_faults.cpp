/// Experiment E15 (extension) — behavior under injected failures.
///
/// The BIG model is motivated by fading and irregular propagation
/// (Sect. 2), but the analysis assumes every clean reception succeeds.
/// E15a injects i.i.d. fading drops on otherwise-successful receptions
/// and measures the degradation: the protocol's windows already tolerate
/// lost messages, so validity should hold far past realistic drop rates,
/// with time growing ≈ 1/(1−p).
///
/// E15b crashes a fraction of the elected *leaders* mid-run.  The paper's
/// protocol has no recovery path for a cluster member waiting in R — this
/// experiment quantifies that documented limitation (an honest negative
/// result and an obvious future-work hook).

#include <algorithm>
#include <tuple>

#include "bench_util.hpp"
#include "core/protocol.hpp"
#include "graph/coloring.hpp"
#include "radio/engine.hpp"
#include "support/stats.hpp"

int urn::bench::e15_faults(const Args& args) {
  banner("E15", "failure injection: fading drops and leader crashes");

  Rng rng(0xE15);
  const auto net = graph::random_udg(144, 8.0, 1.5, rng);
  const core::Params params = sweep_params(net.graph);
  const std::size_t n = net.graph.num_nodes();
  std::printf("deployment: n=%zu Delta=%u k2=%u\n\n", n, params.delta,
              params.kappa2);

  // ---- E15a: fading. -----------------------------------------------------
  analysis::Table t1("e15_fading",
                     "E15a: i.i.d. drop probability on clean receptions "
                     "(10 trials each)");
  t1.set_header({"drop_p", "valid", "complete", "mean_T", "slowdown"});
  BenchSummary summary("e15_faults");
  Ledger ledger;
  summary.set("n", static_cast<std::uint64_t>(n));
  summary.set("delta", params.delta);
  summary.set("kappa2", params.kappa2);
  summary.set("jobs", static_cast<std::uint64_t>(args.resolved_jobs()));
  double baseline_mean = 0.0;
  for (double p : {0.0, 0.1, 0.25, 0.5, 0.75}) {
    radio::MediumOptions medium;
    medium.drop_probability = p;
    const std::size_t trials = 10;
    // --telemetry-* probes every trial (results bit-identical); without
    // it this is the untraced path, faulty medium and all.
    core::TraceOptions topts;
    topts.telemetry = args.telemetry;
    const auto runs =
        exec::map_trials(trials, args.executor(), [&](std::size_t t) {
          Rng wrng(mix_seed(0xE15F, t));
          const auto ws = radio::WakeSchedule::uniform(
              n, 2 * params.threshold(), wrng);
          return core::run_coloring_traced(net.graph, params, ws,
                                           mix_seed(0xE15A, t), topts, 0,
                                           medium);
        });
    Samples mean_t;
    std::size_t valid = 0, complete = 0;
    for (const core::RunResult& run : runs) {
      if (run.check.valid()) ++valid;
      if (run.all_decided) ++complete;
      mean_t.add(run.mean_latency());
      ledger_record(ledger, run);
    }
    if (p == 0.0) baseline_mean = mean_t.mean();
    t1.add_row({analysis::Table::num(p, 2),
                analysis::Table::num(static_cast<double>(valid) / trials, 2),
                analysis::Table::num(
                    static_cast<double>(complete) / trials, 2),
                analysis::Table::num(mean_t.mean(), 0),
                analysis::Table::num(mean_t.mean() / baseline_mean, 2)});
    {
      char key[32];
      std::snprintf(key, sizeof(key), "drop%.2f", p);
      summary.set(std::string(key) + ".valid_fraction",
                  static_cast<double>(valid) / static_cast<double>(trials));
      summary.set(std::string(key) + ".mean_latency", mean_t.mean());
    }

    // --trace-bin / --metrics-out: record trial 0 at drop_p = 0.25, a lossy
    // but fully-absorbed operating point — the log then contains "drop"
    // events for urn_trace to tally.
    if (args.enabled() && p == 0.25) {
      Rng wrng(mix_seed(0xE15F, 0));
      const auto ws =
          radio::WakeSchedule::uniform(n, 2 * params.threshold(), wrng);
      const auto run = run_traced(args, net.graph, params, ws,
                                  mix_seed(0xE15A, 0), medium);
      summary.set("traced.drop_p", p);
      summary.set("traced.valid", run.check.valid());
      summary.set_medium("traced", run.medium);
      explain_emit(summary, args, params);
    }
  }
  t1.emit();

  // ---- E15b: leader crashes. ----------------------------------------------
  analysis::Table t2("e15_crashes",
                     "E15b: crash a fraction of leaders mid-run "
                     "(8 trials each)");
  t2.set_header({"crash frac", "survivors decided", "orphans", "valid among "
                 "decided"});
  for (double frac : {0.0, 0.25, 0.5}) {
    const std::size_t trials = 8;
    // Each trial owns its engine, nodes and RNGs outright: the share of
    // live nodes that decided, the members orphaned in R, and whether
    // whatever did decide is still conflict-free.
    const auto runs =
        exec::map_trials(trials, args.executor(), [&](std::size_t t) {
          std::vector<core::ColoringNode> nodes;
          for (graph::NodeId v = 0; v < n; ++v) {
            nodes.emplace_back(&params, v);
          }
          radio::Engine<core::ColoringNode> eng(
              net.graph, radio::WakeSchedule::synchronous(n),
              std::move(nodes), mix_seed(0xE15B, t));
          // Crash right after the first leaders appear, while many
          // members are still requesting their intra-cluster colors.
          for (radio::Slot s = 0;
               s < params.passive_slots() + params.threshold() + 500;
               ++s) {
            eng.step();
          }
          Rng crng(mix_seed(0xE15C, t));
          for (graph::NodeId v = 0; v < n; ++v) {
            if (eng.node(v).is_leader() && crng.chance(frac)) {
              eng.deactivate(v);
            }
          }
          // Run in 512-slot legs up to the usual budget, and stop once
          // the outcome is settled: every live node decided, or every live
          // undecided one waits in R on a crashed leader.  A node leaves R
          // only on an assignment from its own leader, so from there on no
          // column below can change (the engine would just idle to the
          // budget, over a million slots per trial).
          const auto settled = [&] {
            for (graph::NodeId v = 0; v < n; ++v) {
              if (eng.is_dead(v) || eng.node(v).decided()) continue;
              if (eng.node(v).phase() != core::Phase::kRequest ||
                  !eng.is_dead(eng.node(v).leader())) {
                return false;
              }
            }
            return true;
          };
          const radio::Slot budget =
              core::default_slot_budget(params, eng.schedule());
          for (radio::Slot cap = eng.current_slot() + 512;; cap += 512) {
            const bool done = eng.run(std::min(cap, budget)).all_decided;
            if (done || cap >= budget || settled()) break;
          }
          std::size_t decided = 0, live = 0, orphan = 0;
          std::vector<graph::Color> colors(n, graph::kUncolored);
          for (graph::NodeId v = 0; v < n; ++v) {
            if (eng.is_dead(v)) continue;
            ++live;
            if (eng.node(v).decided()) {
              ++decided;
              colors[v] = eng.node(v).color();
            } else if (eng.node(v).phase() == core::Phase::kRequest) {
              ++orphan;
            }
          }
          return std::tuple{
              static_cast<double>(decided) / static_cast<double>(live),
              static_cast<double>(orphan),
              graph::validate(net.graph, colors).correct};
        });
    Samples decided_frac, orphans;
    std::size_t valid_runs = 0;
    for (const auto& [decided, orphan, correct] : runs) {
      decided_frac.add(decided);
      orphans.add(orphan);
      if (correct) ++valid_runs;
    }
    t2.add_row({analysis::Table::num(frac, 2),
                analysis::Table::num(decided_frac.mean(), 3),
                analysis::Table::num(orphans.mean(), 1),
                analysis::Table::num(
                    static_cast<double>(valid_runs) / trials, 2)});
  }
  t2.emit();
  ledger_emit(summary, ledger);
  summary.add_profile();
  summary.emit();
  std::printf(
      "Measured: fading up to 50%% is absorbed outright (the calibrated "
      "windows carry that much margin); at 75%% the margin is gone and "
      "validity collapses while runs still complete.  Under leader "
      "crashes, whatever is decided stays conflict-free, but members "
      "caught waiting in R for a crashed leader starve — the protocol "
      "has no leader re-election, a documented limitation / future-work "
      "hook.\n");
  return 0;
}

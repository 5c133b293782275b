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

#include "analysis/table.hpp"
#include "bench_util.hpp"
#include "core/protocol.hpp"
#include "core/runner.hpp"
#include "exec/parallel.hpp"
#include "graph/coloring.hpp"
#include "graph/generators.hpp"
#include "radio/engine.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

#include <optional>

int main(int argc, char** argv) {
  using namespace urn;
  const bench::TraceArgs trace = bench::parse_trace_args(argc, argv, "e15");
  bench::banner("E15", "failure injection: fading drops and leader crashes");

  // --telemetry-*: the hand-rolled trial loops below feed the global
  // registry via engine probes, and the pool reports utilization.
  // Probes read counts only, so results stay bit-identical.
  std::optional<obs::telemetry::PoolProbe> pool_probe;
  if (trace.telemetry != nullptr) {
    pool_probe.emplace(*trace.telemetry, trace.resolved_jobs());
  }
  const exec::ExecOptions eopts{trace.jobs, 0, nullptr,
                                pool_probe ? &*pool_probe : nullptr};

  Rng rng(0xE15);
  const auto net = graph::random_udg(144, 8.0, 1.5, rng);
  const auto mp = bench::measured_params(net.graph, 48);
  const std::size_t n = net.graph.num_nodes();
  std::printf("deployment: n=%zu Delta=%u k2=%u\n\n", n, mp.delta,
              mp.kappa2);

  // ---- E15a: fading. -----------------------------------------------------
  analysis::Table t1("e15_fading",
                     "E15a: i.i.d. drop probability on clean receptions "
                     "(10 trials each)");
  t1.set_header({"drop_p", "valid", "complete", "mean_T", "slowdown"});
  bench::BenchSummary summary("e15_faults");
  obs::RunLedger ledger;
  summary.set("n", static_cast<std::uint64_t>(n));
  summary.set("delta", mp.delta);
  summary.set("kappa2", mp.kappa2);
  summary.set("jobs", static_cast<std::uint64_t>(trace.resolved_jobs()));
  double baseline_mean = 0.0;
  for (double p : {0.0, 0.1, 0.25, 0.5, 0.75}) {
    radio::MediumOptions medium;
    medium.drop_probability = p;
    const std::size_t trials = 10;
    // Trial t is a pure function of its seeds, so the loop fans out on
    // the deterministic executor: per-chunk partials merge in trial
    // order, keeping every statistic (incl. ledger percentiles)
    // bit-identical to the serial loop for any --jobs.
    struct Partial {
      Samples mean_t;
      std::size_t valid = 0, complete = 0;
      obs::RunLedger ledger;
    };
    const Partial part = exec::parallel_for_trials<Partial>(
        trials, eopts,
        [&](Partial& acc, std::size_t t) {
          Rng wrng(mix_seed(0xE15F, t));
          const auto ws = radio::WakeSchedule::uniform(
              n, 2 * mp.params.threshold(), wrng);
          // --telemetry-* probes every trial (results bit-identical);
          // without it this is the untraced path, faulty medium and all.
          core::TraceOptions topts;
          topts.telemetry = trace.telemetry;
          const auto run = core::run_coloring_traced(
              net.graph, mp.params, ws, mix_seed(0xE15A, t), topts, 0,
              medium);
          if (run.check.valid()) ++acc.valid;
          if (run.all_decided) ++acc.complete;
          acc.mean_t.add(run.mean_latency());
          bench::ledger_record(acc.ledger, run);
        },
        [](Partial& into, Partial&& chunk) {
          into.mean_t.merge(chunk.mean_t);
          into.valid += chunk.valid;
          into.complete += chunk.complete;
          into.ledger.merge(chunk.ledger);
        });
    const Samples& mean_t = part.mean_t;
    const std::size_t valid = part.valid, complete = part.complete;
    ledger.merge(part.ledger);
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
    if (trace.enabled() && p == 0.25) {
      Rng wrng(mix_seed(0xE15F, 0));
      const auto ws =
          radio::WakeSchedule::uniform(n, 2 * mp.params.threshold(), wrng);
      const auto run = bench::run_traced(trace, net.graph, mp.params, ws,
                                         mix_seed(0xE15A, 0), medium);
      summary.set("traced.drop_p", p);
      summary.set("traced.valid", run.check.valid());
      summary.set_medium("traced", run.medium);
      bench::explain_emit(summary, trace, mp.params);
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
    // Each trial owns its engine, nodes and RNGs outright — same
    // deterministic fan-out as E15a.
    struct CrashPartial {
      Samples decided_frac, orphans;
      std::size_t valid_runs = 0;
    };
    const CrashPartial part = exec::parallel_for_trials<CrashPartial>(
        trials, eopts,
        [&](CrashPartial& acc, std::size_t t) {
      std::vector<core::ColoringNode> nodes;
      for (graph::NodeId v = 0; v < n; ++v) {
        nodes.emplace_back(&mp.params, v);
      }
      radio::Engine<core::ColoringNode> eng(
          net.graph, radio::WakeSchedule::synchronous(n), std::move(nodes),
          mix_seed(0xE15B, t));
      // Crash right after the first leaders appear, while many members
      // are still requesting their intra-cluster colors.
      for (radio::Slot s = 0;
           s < mp.params.passive_slots() + mp.params.threshold() + 500;
           ++s) {
        eng.step();
      }
      Rng crng(mix_seed(0xE15C, t));
      std::size_t crashed = 0;
      for (graph::NodeId v = 0; v < n; ++v) {
        if (eng.node(v).is_leader() && crng.chance(frac)) {
          eng.deactivate(v);
          ++crashed;
        }
      }
      (void)eng.run(core::default_slot_budget(mp.params, eng.schedule()));
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
      acc.decided_frac.add(static_cast<double>(decided) /
                           static_cast<double>(live));
      acc.orphans.add(static_cast<double>(orphan));
      // Whatever did decide must still be conflict-free.
      if (graph::validate(net.graph, colors).correct) ++acc.valid_runs;
        },
        [](CrashPartial& into, CrashPartial&& chunk) {
          into.decided_frac.merge(chunk.decided_frac);
          into.orphans.merge(chunk.orphans);
          into.valid_runs += chunk.valid_runs;
        });
    t2.add_row({analysis::Table::num(frac, 2),
                analysis::Table::num(part.decided_frac.mean(), 3),
                analysis::Table::num(part.orphans.mean(), 1),
                analysis::Table::num(
                    static_cast<double>(part.valid_runs) / trials, 2)});
  }
  t2.emit();
  bench::ledger_emit(summary, ledger);
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

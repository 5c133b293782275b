/// Experiment E6 — Robustness to arbitrary wake-up patterns (Sect. 2).
///
/// Paper claim: all results hold for *every* wake-up distribution; the
/// time bound is per-node, measured from the node's own wake-up.  We run
/// the same deployment under six schedules — from the synchronous extreme
/// to sequential wake-up with gaps longer than a whole passive phase —
/// and show per-node latency statistics stay in the same band while
/// validity stays at 1.

#include "analysis/experiment.hpp"
#include "analysis/table.hpp"
#include "bench_util.hpp"
#include "graph/generators.hpp"
#include "support/rng.hpp"

int main(int argc, char** argv) {
  using namespace urn;
  const bench::TraceArgs trace = bench::parse_trace_args(argc, argv, "e6");
  bench::banner("E6", "per-node latency under wake-up patterns (model "
                      "claim, Sect. 2)");

  const std::size_t n = 192;
  Rng rng(0xE6);
  const auto net = graph::random_udg(n, 9.0, 1.5, rng);
  const auto mp = bench::measured_params(net.graph, 48);
  std::printf("deployment: n=%zu Delta=%u k2=%u\n\n", n, mp.delta,
              mp.kappa2);

  const radio::Slot T = mp.params.threshold();
  const radio::Slot P = mp.params.passive_slots();
  const std::size_t trials = 8;

  struct Pattern {
    const char* name;
    analysis::ScheduleFactory factory;
  };
  // Every factory obeys the ScheduleFactory thread-safety contract
  // (experiment.hpp): randomness derives from the trial seed alone, and
  // captures are by value — `positions` included, so no factory reads
  // state it does not own when --jobs fans trials out across workers.
  const std::vector<geom::Vec2> positions = net.positions;
  const Pattern patterns[] = {
      {"synchronous", analysis::synchronous_schedule(n)},
      {"uniform(2T)", analysis::uniform_schedule(n, 2 * T)},
      {"uniform(10T)", analysis::uniform_schedule(n, 10 * T)},
      {"poisson", [n](std::uint64_t s) {
         Rng r(mix_seed(s, 1));
         return radio::WakeSchedule::poisson(n, 50.0, r);
       }},
      {"sequential(P+64)", [n, P](std::uint64_t s) {
         Rng r(mix_seed(s, 2));
         return radio::WakeSchedule::sequential(n, P + 64, r);
       }},
      {"wavefront", [positions, P](std::uint64_t s) {
         Rng r(mix_seed(s, 3));
         return radio::WakeSchedule::wavefront(positions,
                                               static_cast<double>(P) / 2.0,
                                               200, r);
       }},
      {"staged(4xT)", [n, T](std::uint64_t s) {
         Rng r(mix_seed(s, 4));
         return radio::WakeSchedule::staged(n, 4, T, r);
       }},
  };

  analysis::Table table(
      "e6_wakeup",
      "E6: per-node decision latency by wake-up pattern (8 trials each)");
  table.set_header(
      {"pattern", "valid", "mean_T", "p95_T", "max_T", "resets/node"});
  bench::BenchSummary summary("e6_wakeup");
  obs::RunLedger ledger;
  summary.set("n", static_cast<std::uint64_t>(n));
  summary.set("delta", mp.delta);
  summary.set("kappa2", mp.kappa2);
  summary.set("jobs", static_cast<std::uint64_t>(trace.resolved_jobs()));
  for (const Pattern& p : patterns) {
    const auto agg = analysis::run_core_trials(net.graph, mp.params,
                                               p.factory, trials, 0xE6F0,
                                               trace.exec());
    bench::ledger_from_aggregate(ledger, agg);
    table.add_row({p.name, analysis::Table::num(agg.valid_fraction(), 2),
                   analysis::Table::num(agg.mean_latency.mean(), 0),
                   analysis::Table::num(agg.p95_latency.mean(), 0),
                   analysis::Table::num(agg.max_latency.max(), 0),
                   analysis::Table::num(agg.resets_per_node.mean(), 2)});
    const std::string prefix = std::string("pattern.") + p.name;
    summary.set(prefix + ".valid_fraction", agg.valid_fraction());
    summary.set(prefix + ".mean_latency", agg.mean_latency.mean());
    summary.set(prefix + ".max_latency", agg.max_latency.max());

    // --trace-bin / --metrics-out: record trial 0 of the adversarial
    // wavefront pattern, the most interesting schedule of the set.
    if (trace.enabled() && std::string(p.name) == "wavefront") {
      const std::uint64_t trial_seed = mix_seed(0xE6F0, 0);
      const auto run = bench::run_traced(trace, net.graph, mp.params,
                                         p.factory(trial_seed), trial_seed);
      summary.set("traced.pattern", p.name);
      summary.set("traced.valid", run.check.valid());
      summary.set_medium("traced", run.medium);
      bench::explain_emit(summary, trace, mp.params);
    }
  }
  table.emit();
  bench::ledger_emit(summary, ledger);
  summary.add_profile();
  summary.emit();
  std::printf("Paper shape: latency (measured from each node's own wake-up) "
              "stays in the same band for every pattern; no starvation "
              "under adversarial wavefront or staged deployment.\n");
  return 0;
}

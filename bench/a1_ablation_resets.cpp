/// Ablation A1 — why critical ranges + competitor lists (Sect. 4).
///
/// The paper motivates its reset technique by the failure of the naive
/// rule ("reset whenever a higher counter is heard"): cascading resets and
/// local starvation.  We compare the three policies under asynchronous
/// wake-up on a dense deployment: the paper's rule resets rarely and keeps
/// the latency tail tight; the naive rule resets massively and stretches
/// the tail; never resetting is fast but loses the correctness guarantee.

#include "bench_util.hpp"

int urn::bench::a1_ablation_resets(const Args& args) {
  banner("A1", "reset-policy ablation: critical-range vs naive vs "
               "none");

  const std::size_t n = 144;
  Rng rng(0xA1);
  const auto net = graph::random_udg(n, 7.0, 1.5, rng);  // dense
  const core::Params params = sweep_params(net.graph);
  std::printf("deployment: n=%zu Delta=%u k2=%u avg_deg=%.1f\n\n", n,
              params.delta, params.kappa2, net.graph.average_degree());

  const auto sched =
      analysis::uniform_schedule(n, 4 * params.threshold());
  const std::size_t trials = 15;

  analysis::Table table(
      "a1_ablation_resets",
      "A1: reset policies under asynchronous wake-up (15 trials each)");
  table.set_header({"policy", "valid", "complete", "resets/node", "mean_T",
                    "p95_T", "max_T"});
  const std::pair<const char*, core::ResetPolicy> policies[] = {
      {"critical-range (paper)", core::ResetPolicy::kCriticalRange},
      {"naive (strawman)", core::ResetPolicy::kNaive},
      {"never reset", core::ResetPolicy::kNone},
  };
  for (const auto& [name, policy] : policies) {
    core::Params p = params;
    p.reset_policy = policy;
    const auto agg = analysis::run_core_trials(net.graph, p, sched, trials,
                                               0xA1F0, args.exec());
    table.add_row({name, analysis::Table::num(agg.valid_fraction(), 2),
                   analysis::Table::num(agg.completed_fraction(), 2),
                   analysis::Table::num(agg.resets_per_node.mean(), 2),
                   analysis::Table::num(agg.mean_latency.mean(), 0),
                   analysis::Table::num(agg.p95_latency.mean(), 0),
                   analysis::Table::num(agg.max_latency.max(), 0)});
  }
  table.emit();
  std::printf("Paper shape: the critical-range rule achieves correctness "
              "with few resets; the naive rule cascades (many resets, "
              "long tail); no resets sacrifices validity.\n");
  return 0;
}

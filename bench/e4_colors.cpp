/// Experiment E4 — Number of colors: O(Δ) on UDGs, at most κ₂Δ in general
/// (Theorem 5 / Corollary 2).
///
/// We sweep Δ and compare the highest color used by the protocol against
/// (a) the theorem bound κ₂Δ, (b) the centralized greedy baseline,
/// (c) the idealized message-passing (Δ+1)-coloring, and (d) the
/// rand-verify radio baseline's palette.  The paper's shape: the protocol's
/// highest color grows linearly in Δ (within the κ₂Δ bound); message
/// passing achieves Δ+1 only because its model ignores collisions.

#include "baselines/message_passing.hpp"
#include "baselines/rand_verify.hpp"
#include "bench_util.hpp"
#include "graph/coloring.hpp"

int urn::bench::e4_colors(const Args& args) {
  banner("E4", "colors used vs Delta (Thm 5 / Cor 2) + baselines");

  const std::size_t n = 128;
  analysis::Table table(
      "e4_colors",
      "E4: highest color vs Delta (random UDG, n=128; protocol averaged "
      "over 6 trials)");
  table.set_header({"Delta", "k2", "bound k2*D", "mw_max", "mw_distinct",
                    "greedy_max", "mp_max(D+1)", "rv_max", "mw_max/Delta"});

  for (double side : {12.0, 9.5, 8.0, 6.6, 5.6}) {
    Rng rng(mix_seed(0xE4, static_cast<std::uint64_t>(side * 10)));
    const auto net = graph::random_udg(n, side, 1.5, rng);
    const core::Params params = sweep_params(net.graph);

    const auto agg = analysis::run_core_trials(
        net.graph, params,
        analysis::uniform_schedule(n, 2 * params.threshold()), 6,
        mix_seed(0xE4F0, static_cast<std::uint64_t>(side)), args.exec());

    Rng crng(mix_seed(0xE4C0, static_cast<std::uint64_t>(side)));
    const auto greedy = graph::greedy_coloring_random(net.graph, crng);
    const auto mpc = baselines::mp_random_coloring(net.graph, crng);

    baselines::RandVerifyParams rv;
    rv.n = n;
    rv.delta = params.delta;
    const auto rvr = baselines::run_rand_verify(
        net.graph, rv, radio::WakeSchedule::synchronous(n),
        mix_seed(0xE4D0, static_cast<std::uint64_t>(side)), 30000000);

    table.add_row(
        {analysis::Table::num(static_cast<std::uint64_t>(params.delta)),
         analysis::Table::num(static_cast<std::uint64_t>(params.kappa2)),
         analysis::Table::num(
             static_cast<std::uint64_t>(params.kappa2 * params.delta)),
         analysis::Table::num(agg.max_color.mean(), 0),
         analysis::Table::num(agg.distinct_colors.mean(), 0),
         analysis::Table::num(
             static_cast<std::int64_t>(graph::max_color(greedy))),
         analysis::Table::num(
             static_cast<std::int64_t>(graph::max_color(mpc.colors))),
         analysis::Table::num(
             static_cast<std::int64_t>(rvr.max_color)),
         analysis::Table::num(agg.max_color.mean() / params.delta, 2)});
  }
  table.emit();
  std::printf(
      "Paper shape: mw_max grows linearly in Delta and stays below "
      "k2*Delta; the Delta+1 columns show what the idealized "
      "message-passing model buys.\n");
  return 0;
}

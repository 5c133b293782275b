/// Experiment E14 (extension) — the C₀ layer as a standalone
/// MIS-and-clustering-from-scratch primitive.
///
/// The paper's related work places it in a lineage of initialization
/// primitives: dominating sets [13], clustering [14], and MIS in
/// O(log² n) [21], all in the unstructured radio model.  The first stage
/// of the coloring algorithm *is* such a primitive: leaders form an MIS
/// and every node associates with an adjacent leader.  We measure its
/// quality (MIS size vs. greedy and Luby references) and its cost
/// (cover latency vs. the full coloring run).

#include "baselines/message_passing.hpp"
#include <tuple>

#include "bench_util.hpp"
#include "graph/independence.hpp"
#include "support/stats.hpp"

int urn::bench::e14_leader_election(const Args& args) {
  banner("E14", "leader election: MIS-from-scratch quality and cost");

  analysis::Table table(
      "e14_leader_election",
      "E14: C0-layer MIS vs references (random UDG, n=160, 6 trials)");
  table.set_header({"Delta", "k2", "leaders", "greedy_mis", "luby_mis",
                    "maximal", "cover_T(mean)", "color_T(mean)",
                    "stage frac"});

  for (double side : {11.0, 8.0}) {
    Rng rng(mix_seed(0xE14, static_cast<std::uint64_t>(side * 10)));
    const auto net = graph::random_udg(160, side, 1.5, rng);
    const core::Params params = sweep_params(net.graph);
    const std::size_t n = net.graph.num_nodes();

    // Per trial: leaders, maximality, mean cover and coloring latency.
    const auto runs =
        exec::map_trials(6, args.executor(), [&](std::size_t t) {
          Rng wrng(mix_seed(0xE14F, t));
          const auto ws = radio::WakeSchedule::uniform(
              n, 2 * params.threshold(), wrng);
          const auto election = core::run_leader_election(
              net.graph, params, ws, mix_seed(0xE14A, t));
          URN_CHECK(election.all_covered);
          Samples cov;
          for (radio::Slot s : election.cover_latency) {
            cov.add(static_cast<double>(s));
          }
          const auto full = core::run_coloring(net.graph, params, ws,
                                               mix_seed(0xE14A, t));
          return std::tuple{
              static_cast<double>(election.leaders.size()),
              graph::is_maximal_independent_set(net.graph, election.leaders),
              cov.mean(), full.mean_latency()};
        });
    Samples leaders, cover_mean, color_mean;
    bool all_maximal = true;
    for (const auto& [size, maximal, cover, color] : runs) {
      leaders.add(size);
      all_maximal = all_maximal && maximal;
      cover_mean.add(cover);
      color_mean.add(color);
    }

    Rng mrng(mix_seed(0xE14B, static_cast<std::uint64_t>(side)));
    const auto greedy = graph::greedy_mis_random(net.graph, mrng);
    const auto luby = baselines::luby_mis(net.graph, mrng);

    table.add_row(
        {analysis::Table::num(static_cast<std::uint64_t>(params.delta)),
         analysis::Table::num(static_cast<std::uint64_t>(params.kappa2)),
         analysis::Table::num(leaders.mean(), 1),
         analysis::Table::num(static_cast<std::uint64_t>(greedy.size())),
         analysis::Table::num(static_cast<std::uint64_t>(luby.mis.size())),
         all_maximal ? "yes" : "NO",
         analysis::Table::num(cover_mean.mean(), 0),
         analysis::Table::num(color_mean.mean(), 0),
         analysis::Table::num(cover_mean.mean() / color_mean.mean(), 2)});
  }
  table.emit();
  std::printf("Shape: the leader set matches the size of centralized "
              "greedy / Luby MIS references, and costs only a fraction of "
              "the full coloring time — clustering comes 'for free' on "
              "the way to the coloring, as the paper's construction "
              "implies.\n");
  return 0;
}

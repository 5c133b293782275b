/// Experiment E13 — from coloring to MAC layer (Sect. 1's motivation).
///
/// Paper: a correct 1-hop coloring "corresponds to a MAC layer without
/// *direct interference*"; full collision-freedom is "typically argued"
/// to need a coloring of the *square* of the graph, but even a 1-hop
/// coloring "ensures a schedule in which any receiver can be disturbed by
/// at most a small constant number of interfering senders", enabling
/// simple randomized MACs with constant per-slot success probability.
/// We quantify that whole paragraph: TDMA schedules derived from (a) the
/// protocol's coloring, (b) centralized greedy, (c) a distance-2 greedy
/// coloring, audited for direct interference, residual 2-hop conflicts,
/// frame length, and the bandwidth/robustness trade-off.

#include "bench_util.hpp"
#include "core/tdma.hpp"
#include "graph/coloring.hpp"

int urn::bench::e13_tdma(const Args& /*args*/) {
  banner("E13", "TDMA schedules from colorings: 1-hop vs "
                "distance-2 (Sect. 1)");

  analysis::Table table(
      "e13_tdma",
      "E13: schedule quality by coloring source (random UDG, n=160)");
  table.set_header({"Delta", "coloring", "frame", "direct-free",
                    "max nbr tx", "max 2hop tx", "clean rx frac"});

  for (double side : {10.0, 7.5}) {
    Rng rng(mix_seed(0xE13, static_cast<std::uint64_t>(side * 10)));
    const auto net = graph::random_udg(160, side, 1.5, rng);
    const core::Params params = sweep_params(net.graph);

    const auto run = core::run_coloring(
        net.graph, params,
        radio::WakeSchedule::synchronous(net.graph.num_nodes()), 0xE13A);
    URN_CHECK(run.check.valid());

    Rng crng(0xE13B);
    struct Entry {
      const char* name;
      std::vector<graph::Color> colors;
    };
    const Entry entries[] = {
        {"protocol (this paper)", run.colors},
        {"greedy 1-hop", graph::greedy_coloring_random(net.graph, crng)},
        {"greedy distance-2", graph::greedy_distance2_coloring(net.graph)},
    };
    for (const Entry& e : entries) {
      const auto tdma = core::derive_tdma(net.graph, e.colors);
      const auto rep = core::analyze_tdma(net.graph, tdma);
      table.add_row(
          {analysis::Table::num(static_cast<std::uint64_t>(params.delta)),
           e.name,
           analysis::Table::num(static_cast<std::uint64_t>(tdma.frame)),
           rep.direct_interference_free ? "yes" : "NO",
           analysis::Table::num(
               static_cast<std::uint64_t>(rep.max_neighbor_transmitters)),
           analysis::Table::num(
               static_cast<std::uint64_t>(rep.max_two_hop_transmitters)),
           analysis::Table::num(rep.clean_reception_fraction, 2)});
    }
  }
  table.emit();
  std::printf(
      "Paper's trade-off, quantified: every 1-hop coloring removes direct "
      "interference but leaves <= kappa1 same-slot neighbor transmitters "
      "(the 'small constant number of interfering senders'); the "
      "distance-2 coloring removes those too (clean rx = 1.00) at the "
      "price of a longer frame, i.e. less bandwidth per node.  The "
      "protocol's frame is longer than greedy's because its colors are "
      "spaced in tc*(kappa2+1) ranges — the cost of computing the "
      "coloring from scratch in the radio model.\n");
  return 0;
}

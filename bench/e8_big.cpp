/// Experiment E8 — Bounded independence beyond unit disks: obstacles and
/// unit ball graphs (Sect. 2, Fig. 1; Corollary 3, Lemma 9).
///
/// Paper claims: (a) obstacles break the disk shape but "typically cause
/// only small increases in κ₁ or κ₂", and the algorithm's bounds degrade
/// only through κ₂; (b) for unit ball graphs over a metric of doubling
/// dimension ρ, κ₂ ≤ 4^ρ and the UDG bounds carry over for constant ρ.
/// We measure κ on obstacle-BIGs with growing wall counts and on UBGs of
/// growing dimension, run the protocol with the measured κ, and report
/// validity, colors, and latency.

#include "bench_util.hpp"

int urn::bench::e8_big(const Args& args) {
  banner("E8", "obstacle BIGs and unit ball graphs (Cor 3, Lemma 9)");

  const std::size_t trials = 6;

  analysis::Table t1("e8_obstacles",
                     "E8a: obstacle BIGs — walls cut UDG links "
                     "(n=160, radius 1.5, 6 trials each)");
  t1.set_header({"walls", "edges", "Delta", "k1", "k2", "valid", "mean_T",
                 "max_color"});
  for (std::size_t walls : {0u, 15u, 40u, 90u}) {
    Rng rng(mix_seed(0xE8, walls));
    auto segs = graph::random_walls(walls, 10.0, 1.0, 4.0, rng);
    const auto net =
        graph::random_obstacle_big(160, 10.0, 1.5, std::move(segs), rng);
    const core::Params params = sweep_params(net.graph);
    const auto agg = analysis::run_core_trials(
        net.graph, params,
        analysis::uniform_schedule(160, 2 * params.threshold()), trials,
        mix_seed(0xE8F0, walls), args.exec());
    t1.add_row(
        {analysis::Table::num(static_cast<std::uint64_t>(walls)),
         analysis::Table::num(static_cast<std::uint64_t>(net.graph.num_edges())),
         analysis::Table::num(static_cast<std::uint64_t>(params.delta)),
         analysis::Table::num(static_cast<std::uint64_t>(params.kappa1)),
         analysis::Table::num(static_cast<std::uint64_t>(params.kappa2)),
         analysis::Table::num(agg.valid_fraction(), 2),
         analysis::Table::num(agg.mean_latency.mean(), 0),
         analysis::Table::num(agg.max_color.mean(), 0)});
  }
  t1.emit();

  analysis::Table t2("e8_unit_ball",
                     "E8b: unit ball graphs in d dimensions (n=110, "
                     "6 trials each; Lemma 9: k2 <= 4^rho)");
  t2.set_header({"dim", "Delta", "k1", "k2", "valid", "mean_T",
                 "max_color", "bound k2*D"});
  for (std::size_t dim : {1u, 2u, 3u}) {
    Rng rng(mix_seed(0xE8B, dim));
    // Volume scaled so the degree stays moderate in each dimension.
    const double side = dim == 1 ? 16.0 : (dim == 2 ? 5.2 : 3.1);
    const auto ball = graph::random_unit_ball(110, dim, side, rng);
    const core::Params params = sweep_params(ball.graph);
    const auto agg = analysis::run_core_trials(
        ball.graph, params,
        analysis::uniform_schedule(110, 2 * params.threshold()), trials,
        mix_seed(0xE8C0, dim), args.exec());
    t2.add_row(
        {analysis::Table::num(static_cast<std::uint64_t>(dim)),
         analysis::Table::num(static_cast<std::uint64_t>(params.delta)),
         analysis::Table::num(static_cast<std::uint64_t>(params.kappa1)),
         analysis::Table::num(static_cast<std::uint64_t>(params.kappa2)),
         analysis::Table::num(agg.valid_fraction(), 2),
         analysis::Table::num(agg.mean_latency.mean(), 0),
         analysis::Table::num(agg.max_color.mean(), 0),
         analysis::Table::num(
             static_cast<std::uint64_t>(params.kappa2 * params.delta))});
  }
  t2.emit();
  BenchSummary summary("e8_big");
  summary.set("trials", static_cast<std::uint64_t>(trials));
  summary.set("jobs", static_cast<std::uint64_t>(args.resolved_jobs()));
  summary.add_profile();
  summary.emit();
  std::printf("Paper shape: walls shrink edges but kappa stays a small "
              "constant (the algorithm never relied on disk geometry); in "
              "UBGs kappa2 grows with the doubling dimension and the "
              "time/color bounds scale through kappa2 only.\n");
  return 0;
}

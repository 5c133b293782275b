/// Experiment E5 — Locality of the color assignment (Theorem 4).
///
/// Paper claim: the highest color in any neighborhood depends only on the
/// *local* density — φ_v ≤ κ₂·θ_v (statement; the derivation gives
/// (κ₂+1)θ_v + κ₂) — so sparse regions keep low colors even when dense
/// regions exist elsewhere.  We deploy strongly non-uniform (clustered)
/// networks, bucket nodes by their local density θ_v, and report the
/// highest neighborhood color φ_v per bucket.

#include <algorithm>
#include <map>

#include "bench_util.hpp"
#include "geom/spatial_grid.hpp"
#include "graph/coloring.hpp"
#include "support/stats.hpp"

int urn::bench::e5_locality(const Args& /*args*/) {
  banner("E5", "locality: highest neighborhood color vs local "
               "density theta_v (Thm 4)");

  // Clustered deployment: dense blobs in a large sparse field, connected
  // by scattered background nodes.
  Rng rng(0xE5);
  auto net = graph::clustered_udg(6, 30, 14.0, 0.8, 1.5, rng);
  {
    // Add sparse background nodes so low-density buckets exist.
    auto bg = graph::random_udg(120, 14.0, 1.5, rng);
    std::vector<geom::Vec2> pts = net.positions;
    pts.insert(pts.end(), bg.positions.begin(), bg.positions.end());
    net = graph::GeometricGraph{};
    net.positions = std::move(pts);
    graph::GraphBuilder builder(net.positions.size());
    const geom::SpatialGrid grid(net.positions, 1.5);
    for (std::uint32_t i = 0; i < net.positions.size(); ++i) {
      grid.for_each_within(i, 1.5, [&](std::uint32_t j) {
        if (j > i) builder.add_edge(i, j);
      });
    }
    net.graph = builder.build();
  }

  const core::Params params = sweep_params(net.graph);
  std::printf("deployment: n=%zu Delta=%u k2=%u (clustered + background)\n\n",
              net.graph.num_nodes(), params.delta, params.kappa2);

  Rng wrng(0xE5F0);
  const auto ws = radio::WakeSchedule::uniform(
      net.graph.num_nodes(), 2 * params.threshold(), wrng);
  const auto run = core::run_coloring(net.graph, params, ws, 0xE5AA);
  URN_CHECK(run.all_decided);
  std::printf("run valid=%d max_color=%d\n\n", run.check.valid() ? 1 : 0,
              run.max_color);

  // Bucket nodes by theta_v.
  std::map<std::uint32_t, Samples> phi_by_theta;  // bucket lo -> phis
  const std::uint32_t bucket = 5;
  double max_ratio = 0.0;
  const auto thetas = graph::local_density_thetas(net.graph);
  for (graph::NodeId v = 0; v < net.graph.num_nodes(); ++v) {
    const auto theta = thetas[v];
    const auto phi = graph::highest_neighborhood_color(net.graph, run.colors, v);
    phi_by_theta[(theta / bucket) * bucket].add(static_cast<double>(phi));
    max_ratio = std::max(max_ratio, static_cast<double>(phi) / theta);
  }

  analysis::Table table(
      "e5_locality",
      "E5: highest neighborhood color phi_v by local density theta_v");
  table.set_header({"theta bucket", "nodes", "mean_phi", "max_phi",
                    "bound (k2+1)*theta+k2"});
  for (auto& [lo, phis] : phi_by_theta) {
    const std::uint32_t theta_hi = lo + bucket - 1;
    table.add_row(
        {std::to_string(lo) + "-" + std::to_string(theta_hi),
         analysis::Table::num(static_cast<std::uint64_t>(phis.count())),
         analysis::Table::num(phis.mean(), 0),
         analysis::Table::num(phis.max(), 0),
         analysis::Table::num(static_cast<std::uint64_t>(
             (params.kappa2 + 1) * theta_hi + params.kappa2))});
  }
  table.emit();

  const core::LocalityReport loc =
      core::check_locality(net.graph, run.colors, params.kappa2);
  std::printf("max phi_v/theta_v ratio: %.2f (k2=%u); derivable bound "
              "holds: %s\n",
              loc.max_ratio, params.kappa2, loc.holds ? "yes" : "no");
  std::printf("Paper shape: phi grows with theta (locality) — nodes in "
              "sparse areas keep small colors regardless of the dense "
              "clusters elsewhere.\n");
  return 0;
}

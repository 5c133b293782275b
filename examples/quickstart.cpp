/// \file quickstart.cpp
/// \brief 30-second tour of the library: build a random unit disk graph,
///        run the Moscibroda–Wattenhofer coloring protocol from scratch,
///        validate the result, and print a summary.

#include <cstdio>

#include "analysis/experiment.hpp"
#include "core/runner.hpp"
#include "graph/generators.hpp"
#include "support/rng.hpp"

int main() {
  using namespace urn;

  // 1. Deploy 200 sensor nodes uniformly in a 10×10 field; nodes within
  //    distance 1.5 of each other can communicate (a unit disk graph).
  Rng rng(42);
  const graph::GeometricGraph net = graph::random_udg(200, 10.0, 1.5, rng);
  std::printf("network: n=%zu  m=%zu  Delta=%u  avg_deg=%.1f\n",
              net.graph.num_nodes(), net.graph.num_edges(),
              net.graph.max_closed_degree(), net.graph.average_degree());

  // 2. Measure Delta and the bounded-independence parameters of this
  //    deployment over every node (every UDG satisfies kappa1 <= 5,
  //    kappa2 <= 18).
  const core::GraphBounds b = core::measure_bounds(net.graph);
  std::printf("independence: kappa1=%u  kappa2=%u\n", b.kappa1, b.kappa2);

  // 3. Configure the protocol with the estimates every node is given
  //    (n, Delta, kappa1, kappa2) and the practical constants.
  const core::Params params = core::Params::practical(
      net.graph.num_nodes(), b.delta, b.kappa1, b.kappa2);

  // 4. Nodes wake up asynchronously — here uniformly over 2000 slots —
  //    and run the protocol entirely from scratch.
  radio::WakeSchedule schedule =
      radio::WakeSchedule::uniform(net.graph.num_nodes(), 2000, rng);
  const core::RunResult run =
      core::run_coloring(net.graph, params, schedule, /*seed=*/7);

  // 5. Inspect the outcome.
  std::printf("run: slots=%lld  all_decided=%s  leaders=%zu\n",
              static_cast<long long>(run.medium.slots_run),
              run.all_decided ? "yes" : "no", run.num_leaders);
  std::printf("coloring: correct=%s complete=%s  max_color=%d "
              "(theorem bound Delta*(kappa2+1)+kappa2=%llu)\n",
              run.check.correct ? "yes" : "no",
              run.check.complete ? "yes" : "no", run.max_color,
              static_cast<unsigned long long>(params.color_bound()));
  std::printf("latency: max T_v=%lld slots  mean=%.0f slots\n",
              static_cast<long long>(run.max_latency()),
              run.mean_latency());

  const core::LocalityReport locality =
      core::check_locality(net.graph, run.colors, b.kappa2);
  std::printf("locality (Thm 4): phi_v <= (kappa2+1)*theta_v + kappa2 "
              "holds=%s (max phi/theta ratio %.2f, kappa2=%u)\n",
              locality.holds ? "yes" : "no", locality.max_ratio, b.kappa2);

  return run.check.valid() ? 0 : 1;
}

/// \file wakeup_adversary.cpp
/// \brief Stress-testing asynchronous wake-up (Sect. 2): the model demands
///        correctness under *every* wake-up pattern, and the per-node time
///        bound counts from each node's own wake-up.
///
/// We run one deployment under three hostile patterns — staged bursts
/// (whole groups appear at once into a half-initialized network), a slow
/// spatial wavefront, and strict one-by-one sequential wake-up — and show
/// that (a) the coloring stays correct, (b) per-node latency distributions
/// stay in the same band, i.e. late wakers are not starved by the
/// established structure around them.

#include <cstdio>

#include "analysis/histogram.hpp"
#include "core/runner.hpp"
#include "graph/generators.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

int main() {
  using namespace urn;

  Rng rng(31337);
  const std::size_t n = 200;
  const auto net = graph::random_udg(n, 9.0, 1.5, rng);
  const core::GraphBounds b = core::measure_bounds(net.graph);
  const core::Params params =
      core::Params::practical(n, b.delta, b.kappa1, b.kappa2);
  std::printf("deployment: n=%zu Delta=%u kappa2=%u, threshold=%lld "
              "slots\n\n",
              n, b.delta, b.kappa2,
              static_cast<long long>(params.threshold()));

  struct Scenario {
    const char* name;
    radio::WakeSchedule schedule;
  };
  Rng wrng(4);
  Scenario scenarios[] = {
      {"synchronous (baseline)", radio::WakeSchedule::synchronous(n)},
      {"staged bursts (4 groups, 2 thresholds apart)",
       radio::WakeSchedule::staged(n, 4, 2 * params.threshold(), wrng)},
      {"slow wavefront across the field",
       radio::WakeSchedule::wavefront(
           net.positions, static_cast<double>(params.threshold()), 300,
           wrng)},
      {"strictly sequential (one node per passive phase)",
       radio::WakeSchedule::sequential(n, params.passive_slots(), wrng)},
  };

  for (const Scenario& sc : scenarios) {
    const auto run = core::run_coloring(net.graph, params, sc.schedule, 55);
    Samples lat;
    for (radio::Slot t : run.latency) lat.add(static_cast<double>(t));
    std::printf("%-48s\n", sc.name);
    std::printf("  wake span %8lld slots | valid=%s | latency mean=%6.0f "
                "p95=%6.0f max=%6.0f\n",
                static_cast<long long>(sc.schedule.latest()),
                run.check.valid() ? "yes" : "NO ", lat.mean(),
                lat.percentile(95.0), lat.max());

    // Starvation check: compare the latency of the last quarter of wakers
    // against the first quarter — late arrivals must not pay extra.
    Samples early, late;
    std::vector<std::pair<radio::Slot, radio::Slot>> by_wake;
    for (graph::NodeId v = 0; v < n; ++v) {
      by_wake.emplace_back(run.wake_slot[v],
                           run.decision_slot[v] - run.wake_slot[v]);
    }
    std::sort(by_wake.begin(), by_wake.end());
    for (std::size_t i = 0; i < by_wake.size(); ++i) {
      if (i < n / 4) early.add(static_cast<double>(by_wake[i].second));
      if (i >= 3 * n / 4) late.add(static_cast<double>(by_wake[i].second));
    }
    std::printf("  first-quarter wakers mean T=%6.0f | last-quarter "
                "mean T=%6.0f (ratio %.2f)\n",
                early.mean(), late.mean(), late.mean() / early.mean());
    std::printf("%s\n",
                analysis::Histogram::render(lat, 6, 40).c_str());
    if (!run.check.valid()) return 1;
  }
  std::printf("No starvation: late wakers decide about as fast as early "
              "ones under every pattern — the per-node O(Delta log n) "
              "guarantee of Theorem 3.\n");
  return 0;
}

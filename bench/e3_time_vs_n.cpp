/// Experiment E3 — Running time grows only logarithmically in n
/// (Theorem 3 / Corollary 2).
///
/// Paper claim: T = O(Δ log n).  We hold the deployment density (and hence
/// Δ) roughly constant while scaling n over an order of magnitude, then
/// fit mean decision latency against ln n: the fit should be near-linear
/// in ln n with the Δ factor constant.

#include <cmath>

#include "bench_util.hpp"
#include "support/stats.hpp"

int urn::bench::e3_time_vs_n(const Args& args) {
  banner("E3", "decision time vs n at fixed density (Thm 3 / Cor 2)");

  const std::size_t trials = 6;
  analysis::Table table(
      "e3_time_vs_n",
      "E3: per-node decision latency vs n (random UDG, constant density, "
      "6 trials each)");
  table.set_header({"n", "Delta", "k2", "mean_T", "p95_T", "max_T",
                    "T/(Delta*ln n)", "valid"});

  std::vector<double> xs, ys;
  for (std::size_t n : {64u, 128u, 256u, 512u, 1024u}) {
    const double side = 1.5 * std::sqrt(static_cast<double>(n) / 2.8);
    Rng rng(mix_seed(0xE3, n));
    const auto net = graph::random_udg(n, side, 1.5, rng);
    const core::Params params = sweep_params(net.graph);
    const auto agg = analysis::run_core_trials(
        net.graph, params,
        analysis::uniform_schedule(n, 2 * params.threshold()), trials,
        mix_seed(0xE3F0, n), args.exec());
    const double logn = std::log(static_cast<double>(n));
    xs.push_back(static_cast<double>(params.delta) * logn);
    ys.push_back(agg.mean_latency.mean());
    table.add_row(
        {analysis::Table::num(static_cast<std::uint64_t>(n)),
         analysis::Table::num(static_cast<std::uint64_t>(params.delta)),
         analysis::Table::num(static_cast<std::uint64_t>(params.kappa2)),
         analysis::Table::num(agg.mean_latency.mean(), 0),
         analysis::Table::num(agg.p95_latency.mean(), 0),
         analysis::Table::num(agg.max_latency.max(), 0),
         analysis::Table::num(
             agg.mean_latency.mean() / (params.delta * logn), 1),
         analysis::Table::num(agg.valid_fraction(), 2)});
  }
  table.emit();

  const LinearFit fit = fit_line(xs, ys);
  std::printf("Linear fit of mean T against Delta*ln n: slope=%.1f R^2=%.3f\n",
              fit.slope, fit.r_squared);
  BenchSummary summary("e3_time_vs_n");
  summary.set("fit.slope", fit.slope);
  summary.set("fit.r_squared", fit.r_squared);
  summary.set("trials", static_cast<std::uint64_t>(trials));
  summary.set("jobs", static_cast<std::uint64_t>(args.resolved_jobs()));
  summary.add_profile();
  summary.emit();
  std::printf("Paper shape: at constant density a 16x larger network only "
              "costs a log-factor more time per node.\n");
  return 0;
}

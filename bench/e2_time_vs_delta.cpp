/// Experiment E2 — Running time is linear in Δ (Theorem 3 / Corollary 2).
///
/// Paper claim: on unit disk graphs (κ₂ ∈ O(1)) every node decides within
/// O(Δ log n) slots of its own wake-up.  We fix n and sweep the deployment
/// density so Δ grows, then fit T against Δ·log n: the fit should be close
/// to linear (R² near 1) — that is the "shape" of Corollary 2.

#include <cmath>

#include "bench_util.hpp"
#include "support/stats.hpp"

int urn::bench::e2_time_vs_delta(const Args& args) {
  banner("E2", "decision time vs Delta at fixed n (Thm 3 / Cor 2)");

  const std::size_t n = 256;
  const std::size_t trials = 8;
  analysis::Table table(
      "e2_time_vs_delta",
      "E2: per-node decision latency vs Delta (random UDG, n=256, "
      "8 trials each)");
  table.set_header({"side", "Delta", "k2", "mean_T", "p95_T", "max_T",
                    "T/(Delta*ln n)", "valid"});

  std::vector<double> xs, ys;
  for (double side : {16.0, 13.0, 11.0, 9.5, 8.0, 7.0}) {
    Rng rng(mix_seed(0xE2, static_cast<std::uint64_t>(side * 10)));
    const auto net = graph::random_udg(n, side, 1.5, rng);
    const core::Params params = sweep_params(net.graph);
    const auto agg = analysis::run_core_trials(
        net.graph, params,
        analysis::uniform_schedule(n, 2 * params.threshold()), trials,
        mix_seed(0xE2F0, static_cast<std::uint64_t>(side * 10)),
        args.exec());
    const double logn = std::log(static_cast<double>(n));
    const double normalized =
        agg.mean_latency.mean() / (params.delta * logn);
    xs.push_back(static_cast<double>(params.delta) * logn);
    ys.push_back(agg.mean_latency.mean());
    table.add_row(
        {analysis::Table::num(side, 1),
         analysis::Table::num(static_cast<std::uint64_t>(params.delta)),
         analysis::Table::num(static_cast<std::uint64_t>(params.kappa2)),
         analysis::Table::num(agg.mean_latency.mean(), 0),
         analysis::Table::num(agg.p95_latency.mean(), 0),
         analysis::Table::num(agg.max_latency.max(), 0),
         analysis::Table::num(normalized, 1),
         analysis::Table::num(agg.valid_fraction(), 2)});
  }
  table.emit();

  const LinearFit fit = fit_line(xs, ys);
  std::printf("Linear fit of mean T against Delta*ln n: slope=%.1f "
              "intercept=%.0f R^2=%.3f\n",
              fit.slope, fit.intercept, fit.r_squared);
  BenchSummary summary("e2_time_vs_delta");
  summary.set("fit.slope", fit.slope);
  summary.set("fit.r_squared", fit.r_squared);
  summary.set("trials", static_cast<std::uint64_t>(trials));
  summary.set("jobs", static_cast<std::uint64_t>(args.resolved_jobs()));
  summary.add_profile();
  summary.emit();
  std::printf("Paper shape: T = O(Delta log n) on UDGs -> expect R^2 near 1 "
              "and roughly constant T/(Delta*ln n).\n");
  return 0;
}

/// Experiment E9 — Head-to-head against the Busch et al.-style baseline
/// (Sect. 3 comparison).
///
/// Paper claim: restricted to one-hop coloring, the technique of [2]
/// yields O(Δ) colors in O(Δ³ log n) time, while this paper's algorithm
/// needs O(κ₂⁴ Δ log n) — linear instead of cubic in Δ.  Our rand-verify
/// reconstruction uses a Θ(Δ² log n) verification window (the price of no
/// collision detection), so its latency should grow ≈ quadratically in Δ
/// while the paper's algorithm grows linearly; the crossover sits at small
/// Δ.  The idealized message-passing coloring is listed (in rounds, not
/// slots) as the collision-free reference.

#include <array>
#include <cmath>

#include "baselines/message_passing.hpp"
#include "baselines/rand_verify.hpp"
#include "bench_util.hpp"
#include "support/stats.hpp"

int urn::bench::e9_baselines(const Args& args) {
  banner("E9", "this paper vs rand-verify (Busch-style) vs "
               "message passing");

  const std::size_t n = 128;
  analysis::Table table(
      "e9_baselines",
      "E9: per-node latency (slots) vs Delta — protocol vs baselines "
      "(random UDG, n=128, 4 trials each)");
  table.set_header({"Delta", "mw_mean_T", "mw_max_T", "rv_mean_T",
                    "rv_max_T", "rv/mw", "mw_colors", "rv_colors",
                    "mp_rounds"});

  std::vector<double> deltas, kappas, mw_means, rv_means;
  for (double side : {13.0, 10.0, 8.0, 6.6, 5.6}) {
    Rng rng(mix_seed(0xE9, static_cast<std::uint64_t>(side * 10)));
    const auto net = graph::random_udg(n, side, 1.5, rng);
    const core::Params params = sweep_params(net.graph);

    const auto agg = analysis::run_core_trials(
        net.graph, params, analysis::synchronous_schedule(n), 4,
        mix_seed(0xE9F0, static_cast<std::uint64_t>(side)), args.exec());

    baselines::RandVerifyParams rv;
    rv.n = n;
    rv.delta = params.delta;
    // Mean latency, max latency and highest color of each baseline run.
    const auto rv_runs =
        exec::map_trials(4, args.executor(), [&](std::size_t t) {
          const auto r = baselines::run_rand_verify(
              net.graph, rv, radio::WakeSchedule::synchronous(n),
              mix_seed(0xE9A0 + t, static_cast<std::uint64_t>(side)),
              60000000);
          URN_CHECK(r.all_decided);
          Samples lat;
          for (radio::Slot s : r.latency) lat.add(static_cast<double>(s));
          return std::array{lat.mean(), lat.max(),
                            static_cast<double>(r.max_color)};
        });
    Samples rv_lat, rv_max, rv_colors;
    for (const auto& [mean, max, colors] : rv_runs) {
      rv_lat.add(mean);
      rv_max.add(max);
      rv_colors.add(colors);
    }

    Rng mrng(mix_seed(0xE9B0, static_cast<std::uint64_t>(side)));
    const auto mpc = baselines::mp_random_coloring(net.graph, mrng);

    deltas.push_back(params.delta);
    kappas.push_back(params.kappa2);
    mw_means.push_back(agg.mean_latency.mean());
    rv_means.push_back(rv_lat.mean());
    table.add_row(
        {analysis::Table::num(static_cast<std::uint64_t>(params.delta)),
         analysis::Table::num(agg.mean_latency.mean(), 0),
         analysis::Table::num(agg.max_latency.max(), 0),
         analysis::Table::num(rv_lat.mean(), 0),
         analysis::Table::num(rv_max.max(), 0),
         analysis::Table::num(rv_lat.mean() / agg.mean_latency.mean(), 2),
         analysis::Table::num(agg.max_color.mean(), 0),
         analysis::Table::num(rv_colors.mean(), 0),
         analysis::Table::num(
             static_cast<std::uint64_t>(mpc.rounds))});
  }
  table.emit();

  // Estimate growth exponents: log T vs log Delta.  The protocol's raw
  // exponent is inflated by κ₂ drifting upward with density (its windows
  // scale with κ₂), so we also report the κ₂²-normalized exponent, which
  // is the Δ-dependence Theorem 3 isolates.
  std::vector<double> lx, lmw, lmw_norm, lrv;
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    lx.push_back(std::log(deltas[i]));
    lmw.push_back(std::log(mw_means[i]));
    lmw_norm.push_back(std::log(mw_means[i] / (kappas[i] * kappas[i])));
    lrv.push_back(std::log(rv_means[i]));
  }
  const LinearFit f_mw = fit_line(lx, lmw);
  const LinearFit f_mwn = fit_line(lx, lmw_norm);
  const LinearFit f_rv = fit_line(lx, lrv);
  std::printf("Growth exponents (log-log slope in Delta): this paper ~%.2f "
              "raw, ~%.2f after k2^2 normalization; rand-verify ~%.2f\n",
              f_mw.slope, f_mwn.slope, f_rv.slope);
  // Extrapolated crossover where the baseline's steeper growth overtakes
  // the protocol's larger constants.
  if (f_rv.slope > f_mw.slope) {
    const double cross = std::exp((f_mw.intercept - f_rv.intercept) /
                                  (f_rv.slope - f_mw.slope));
    std::printf("Extrapolated crossover at Delta ~ %.0f.\n", cross);
  }
  std::printf(
      "Paper shape, partially reproduced: the baseline's latency grows "
      "with a higher Delta-exponent (extra Delta factors), as the paper's "
      "O(D^3 log n) vs O(D log n) comparison predicts — but our "
      "reconstruction of [2] is leaner than the original (no TDMA frame "
      "structure), so at these sizes its absolute constants win; see "
      "EXPERIMENTS.md E9 for the discrepancy discussion.\n");
  return 0;
}

#include "core/params.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <initializer_list>

#include "graph/graph.hpp"
#include "graph/independence.hpp"
#include "support/check.hpp"

namespace urn::core {

Params Params::practical(std::uint64_t n, std::uint32_t delta,
                         std::uint32_t kappa1, std::uint32_t kappa2) {
  Params p;
  p.n = n;
  p.delta = delta;
  p.kappa1 = kappa1;
  p.kappa2 = kappa2;
  // Calibrated in experiment E7 (see EXPERIMENTS.md): the smallest multiples
  // of κ₂ for which every one of 60 seeded runs on random UDGs (n = 150 and
  // 400) produced a correct coloring.  The κ₂ scaling matches the analysis:
  // per-slot delivery probability is Θ(1/κ₂) per Lemma 2, so windows must
  // grow linearly in κ₂ to keep the expected in-window deliveries constant.
  const double k2 = kappa2;
  p.alpha = 2.0 * k2;
  p.beta = 2.5 * k2;
  p.gamma = 2.5 * k2;
  p.sigma = 6.0 * k2;
  p.validate();
  return p;
}

Params Params::analytical(std::uint64_t n, std::uint32_t delta,
                          std::uint32_t kappa1, std::uint32_t kappa2) {
  Params p;
  p.n = n;
  p.delta = delta;
  p.kappa1 = kappa1;
  p.kappa2 = kappa2;
  p.validate();

  const double k1 = kappa1;
  const double k2 = kappa2;
  const double d = delta;
  const double inv_e = 1.0 / std::exp(1.0);
  const double term1 = std::pow(inv_e * (1.0 - 1.0 / k2), k1 / k2);
  const double term2 = std::pow(inv_e * (1.0 - 1.0 / (k2 * d)), 1.0 / k2);
  p.gamma = 5.0 * k2 / (term1 * term2);
  p.sigma = 10.0 * std::exp(2.0) * k2 /
            ((1.0 - 1.0 / k2) * (1.0 - 1.0 / (k2 * d)));
  p.alpha = 2.0 * p.gamma * k2 + p.sigma + 2.0;
  p.beta = p.gamma;
  return p;
}

Params Params::scaled(double factor) const {
  URN_CHECK(factor > 0.0);
  Params p = *this;
  p.alpha *= factor;
  p.beta *= factor;
  p.gamma *= factor;
  p.sigma *= factor;
  return p;
}

void Params::validate() const {
  URN_CHECK_MSG(n >= 2, "need n >= 2");
  URN_CHECK_MSG(delta >= 2, "the analysis requires Delta >= 2");
  URN_CHECK_MSG(kappa2 >= 2,
                "kappa2 >= 2 required: with kappa2 = 1 a leader would "
                "transmit in every slot and never hear a request");
  URN_CHECK_MSG(kappa1 >= 1 && kappa1 <= kappa2, "need 1 <= kappa1 <= kappa2");
  for (const double c : {alpha, beta, gamma, sigma}) {
    URN_CHECK_MSG(std::isfinite(c) && c > 0.0,
                  "alpha, beta, gamma, sigma must be finite and positive");
  }
  // Colors are int32: Theorem 5's bound on the largest color a run can
  // produce must fit.
  URN_CHECK_MSG(color_bound() <= INT32_MAX,
                "Delta * (kappa2 + 1) + kappa2 must fit the int32 colors");
  // The derived slot counts must fit an int64 (ceil_mul_log checks);
  // critical_range(1) is the larger of the two ranges.
  (void)passive_slots();
  (void)threshold();
  (void)critical_range(1);
  (void)assign_window();
}

GraphBounds measure_bounds(const graph::Graph& g) {
  const graph::KappaResult k1 = graph::kappa1(g);
  const graph::KappaResult k2 = graph::kappa2(g);
  GraphBounds b;
  b.delta = std::max(2u, g.max_closed_degree());
  b.kappa1 = std::max(2u, k1.value);
  b.kappa2 = std::max(b.kappa1, k2.value);
  b.exact = k1.exact && k2.exact;
  return b;
}

}  // namespace urn::core

// Tests for the protocol parameter set: derived quantities, the paper's
// analytical constants, validation, and the color-range arithmetic that
// Lemma 5 / Corollary 1 rely on.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "core/params.hpp"
#include "graph/generators.hpp"
#include "graph/independence.hpp"
#include "support/check.hpp"
#include "support/mathutil.hpp"
#include "support/rng.hpp"

namespace urn::core {
namespace {

TEST(Params, PracticalValidates) {
  const Params p = Params::practical(256, 16, 5, 12);
  EXPECT_EQ(p.n, 256u);
  EXPECT_EQ(p.delta, 16u);
  EXPECT_NO_THROW(p.validate());
}

TEST(Params, PracticalConstantsScaleWithKappa2) {
  const Params small = Params::practical(256, 16, 5, 6);
  const Params large = Params::practical(256, 16, 5, 12);
  EXPECT_NEAR(large.alpha / small.alpha, 2.0, 1e-9);
  EXPECT_NEAR(large.sigma / small.sigma, 2.0, 1e-9);
}

TEST(Params, DerivedQuantitiesMatchFormulas) {
  const Params p = Params::practical(1000, 20, 5, 10);
  const double logn = std::log(1000.0);
  EXPECT_EQ(p.passive_slots(),
            static_cast<std::int64_t>(std::ceil(p.alpha * 20 * logn)));
  EXPECT_EQ(p.threshold(),
            static_cast<std::int64_t>(std::ceil(p.sigma * 20 * logn)));
  EXPECT_EQ(p.assign_window(),
            static_cast<std::int64_t>(std::ceil(p.beta * logn)));
}

TEST(Params, CriticalRangeUsesZeta) {
  // ζ₀ = 1, ζ_i = Δ for i > 0 (Algorithm 1, line 2).
  const Params p = Params::practical(1000, 20, 5, 10);
  EXPECT_EQ(p.critical_range(0), ceil_mul_log(p.gamma, 1000));
  EXPECT_EQ(p.critical_range(1), ceil_mul_log(p.gamma * 20, 1000));
  EXPECT_EQ(p.critical_range(7), p.critical_range(1));
}

TEST(Params, SendProbabilities) {
  const Params p = Params::practical(100, 25, 4, 10);
  EXPECT_DOUBLE_EQ(p.p_active(), 1.0 / 250.0);
  EXPECT_DOUBLE_EQ(p.p_leader(), 1.0 / 10.0);
}

TEST(Params, FirstVerifyColorSpacing) {
  const Params p = Params::practical(100, 10, 4, 7);
  EXPECT_EQ(p.first_verify_color(0), 0);
  EXPECT_EQ(p.first_verify_color(1), 8);
  EXPECT_EQ(p.first_verify_color(2), 16);
}

// Colors are int32, so Theorem 5's bound Δ(κ₂+1) + κ₂ must fit: a
// hostile κ₂ or Δ is a validation error, not a signed overflow at the
// first assignment.  The product in first_verify_color is checked on its
// own, since a re-serving leader hands out tc past Δ.
TEST(Params, ColorBoundMustFitInt32) {
  EXPECT_THROW((void)Params::practical(100, 16, 5, 1u << 30), CheckError);
  EXPECT_THROW((void)Params::practical(100, 1u << 31, 5, 12), CheckError);
  // κ₂ = 2: 3Δ + 2 ≤ 2³¹ − 1 holds up to Δ = 715827881.
  EXPECT_NO_THROW((void)Params::practical(100, 715827881, 2, 2));
  EXPECT_THROW((void)Params::practical(100, 715827882, 2, 2), CheckError);

  const Params p = Params::practical(100, 10, 4, 12);
  const std::int32_t last_tc = std::numeric_limits<std::int32_t>::max() / 13;
  EXPECT_EQ(p.first_verify_color(last_tc), last_tc * 13);
  EXPECT_THROW((void)p.first_verify_color(last_tc + 1), CheckError);
}

// The checked Theorem 5 bound is the top of the last intra-cluster
// color's range: tc = Δ verifies colors Δ(κ₂+1) … Δ(κ₂+1) + κ₂.
TEST(Params, ColorBoundIsTopOfTheLastRange) {
  const Params p = Params::practical(100, 10, 4, 12);
  EXPECT_EQ(p.color_bound(), 10u * 13u + 12u);
  EXPECT_EQ(p.color_bound(),
            static_cast<std::uint64_t>(p.first_verify_color(10)) + 12u);
}

// Lemma 5 / Corollary 1: the color range of intra-cluster color tc,
// [tc(κ₂+1), tc(κ₂+1)+κ₂], never overlaps the next tc's range.
TEST(Params, TcColorRangesAreDisjoint) {
  const Params p = Params::practical(100, 10, 4, 9);
  for (std::int32_t tc = 0; tc < 50; ++tc) {
    const std::int32_t hi = p.first_verify_color(tc) +
                            static_cast<std::int32_t>(p.kappa2);
    EXPECT_LT(hi, p.first_verify_color(tc + 1));
  }
}

TEST(Params, AnalyticalMatchesPaperFormulas) {
  const std::uint32_t k1 = 5, k2 = 18, delta = 30;
  const Params p = Params::analytical(500, delta, k1, k2);
  const double inv_e = 1.0 / std::exp(1.0);
  const double t1 = std::pow(inv_e * (1.0 - 1.0 / 18.0), 5.0 / 18.0);
  const double t2 = std::pow(inv_e * (1.0 - 1.0 / (18.0 * 30.0)), 1.0 / 18.0);
  EXPECT_NEAR(p.gamma, 5.0 * 18.0 / (t1 * t2), 1e-9);
  EXPECT_NEAR(p.sigma,
              10.0 * std::exp(2.0) * 18.0 /
                  ((1.0 - 1.0 / 18.0) * (1.0 - 1.0 / (18.0 * 30.0))),
              1e-9);
  // Constraints used in the proofs.
  EXPECT_GT(p.alpha, 2.0 * p.gamma * 18.0 + p.sigma + 1.0);  // Lemma 7
  EXPECT_GE(p.beta, p.gamma);                                // Lemma 8
  EXPECT_GT(p.sigma, 2.0 * p.gamma);                         // Theorem 2
}

TEST(Params, AnalyticalDominatesPractical) {
  const Params a = Params::analytical(500, 30, 5, 18);
  const Params pr = Params::practical(500, 30, 5, 18);
  EXPECT_GT(a.alpha, pr.alpha);
  EXPECT_GT(a.gamma, pr.gamma);
  EXPECT_GT(a.sigma, pr.sigma);
}

TEST(Params, ScaledMultipliesAllConstants) {
  const Params p = Params::practical(100, 10, 4, 8);
  const Params s = p.scaled(0.5);
  EXPECT_DOUBLE_EQ(s.alpha, p.alpha * 0.5);
  EXPECT_DOUBLE_EQ(s.beta, p.beta * 0.5);
  EXPECT_DOUBLE_EQ(s.gamma, p.gamma * 0.5);
  EXPECT_DOUBLE_EQ(s.sigma, p.sigma * 0.5);
  EXPECT_EQ(s.n, p.n);
  EXPECT_EQ(s.delta, p.delta);
}

TEST(Params, ScaledRejectsNonPositive) {
  const Params p = Params::practical(100, 10, 4, 8);
  EXPECT_THROW((void)p.scaled(0.0), CheckError);
  EXPECT_THROW((void)p.scaled(-1.0), CheckError);
}

TEST(Params, ValidationRejectsDegenerateInputs) {
  EXPECT_THROW((void)Params::practical(1, 10, 4, 8), CheckError);   // n
  EXPECT_THROW((void)Params::practical(100, 1, 4, 8), CheckError);  // delta
  EXPECT_THROW((void)Params::practical(100, 10, 4, 1), CheckError); // kappa2
  EXPECT_THROW((void)Params::practical(100, 10, 9, 8), CheckError); // k1 > k2
  EXPECT_THROW((void)Params::practical(100, 10, 0, 8), CheckError); // k1 = 0
}

TEST(Params, ThresholdGrowsWithDeltaAndN) {
  const Params base = Params::practical(256, 16, 5, 10);
  const Params more_delta = Params::practical(256, 32, 5, 10);
  const Params more_n = Params::practical(65536, 16, 5, 10);
  EXPECT_GT(more_delta.threshold(), base.threshold());
  EXPECT_GT(more_n.threshold(), base.threshold());
}

// measure_bounds: the one κ path.  A complete graph has κ₁ = κ₂ = 1 and a
// single node Δ = 1; both are floored to what Params accepts.
TEST(MeasureBounds, FloorsOnTinyGraphs) {
  const GraphBounds triangle = measure_bounds(graph::complete_graph(3));
  EXPECT_EQ(triangle.delta, 3u);
  EXPECT_EQ(triangle.kappa1, 2u);
  EXPECT_EQ(triangle.kappa2, 2u);
  EXPECT_TRUE(triangle.exact);
  const GraphBounds single = measure_bounds(graph::complete_graph(1));
  EXPECT_EQ(single.delta, 2u);
  EXPECT_EQ(single.kappa1, 2u);
  EXPECT_EQ(single.kappa2, 2u);
  EXPECT_NO_THROW((void)Params::practical(1000, single.delta, single.kappa1,
                                          single.kappa2));
}

TEST(MeasureBounds, EqualsExactKappaOnRandomUdg) {
  Rng rng(0xB0);
  const graph::Graph g = graph::random_udg(200, 8.0, 1.5, rng).graph;
  const GraphBounds b = measure_bounds(g);
  const graph::KappaResult k1 = graph::kappa1(g);
  const graph::KappaResult k2 = graph::kappa2(g);
  ASSERT_TRUE(k1.exact && k2.exact);
  EXPECT_EQ(b.delta, g.max_closed_degree());
  EXPECT_EQ(b.kappa1, k1.value);
  EXPECT_EQ(b.kappa2, k2.value);
  EXPECT_GT(b.kappa2, b.kappa1);
  EXPECT_TRUE(b.exact);
}

// A star's centre has a closed neighbourhood of 200 nodes, past the
// 160-node exact limit: κ is then a greedy lower bound and says so.
TEST(MeasureBounds, NotExactPastTheLimit) {
  const graph::Graph g = graph::star_graph(200);
  ASSERT_GT(g.max_closed_degree(), graph::KappaOptions{}.exact_limit);
  const GraphBounds b = measure_bounds(g);
  EXPECT_FALSE(b.exact);
  EXPECT_EQ(b.delta, 200u);
  EXPECT_GE(b.kappa2, b.kappa1);
}

}  // namespace
}  // namespace urn::core

/// \file params.hpp
/// \brief Protocol parameters (Sect. 4): the estimates n, Δ, κ₁, κ₂ every
///        node is given, and the four tunable constants α, β, γ, σ.
///
/// The constants trade running time against failure probability: "the
/// higher the parameters, the less likely the algorithm fails …, but the
/// higher the running time."  `Params::analytical` implements the paper's
/// proof-driven values (end of Sect. 4, plus the constraints α > 2γκ₂+σ+1
/// from Lemma 7 and β ≥ γ from Lemma 8).  `Params::practical` uses small
/// constants calibrated by experiment E7 — the paper itself notes that
/// "simulation results show that … significantly smaller values suffice."
///
/// All ⌈·⌉ quantities follow the paper's rounding convention (Sect. 5).

#pragma once

#include <cstdint>

#include "support/check.hpp"
#include "support/mathutil.hpp"

namespace urn::graph {
class Graph;
}

namespace urn::core {

/// Counter-reset policy ablation (experiment A1).
enum class ResetPolicy : std::uint8_t {
  /// The paper's technique: reset to χ(P_v) only when a received counter is
  /// within the critical range (Alg. 1 l. 29).
  kCriticalRange,
  /// The strawman discussed in Sect. 4: reset to 0 whenever a higher
  /// counter is heard — exhibits cascading resets and starvation.
  kNaive,
  /// Never reset — fast but forfeits the correctness guarantee.
  kNone,
};

/// Immutable parameter set shared by every node of a run.
struct Params {
  /// Estimate of the number of nodes (may be an overestimate).
  std::uint64_t n = 2;
  /// Estimate of the maximum closed degree Δ (paper: δ_v includes v).
  std::uint32_t delta = 2;
  /// Bounded-independence parameters of the graph family.
  std::uint32_t kappa1 = 5;
  std::uint32_t kappa2 = 18;

  /// Tunable constants (Sect. 4).  Prefer the `practical()` /
  /// `analytical()` factories over these raw defaults; `practical()` sets
  /// calibrated values that scale with κ₂ (see params.cpp).
  double alpha = 36.0;  ///< passive-listening length factor
  double beta = 45.0;   ///< leader assignment-broadcast length factor
  double gamma = 45.0;  ///< critical-range factor
  double sigma = 108.0; ///< decision-threshold factor

  /// Extension (off = paper-faithful): leaders remember nodes they already
  /// served and never hand out a second intra-cluster color (ablation A3).
  bool remember_served = false;

  /// Counter-reset strategy (paper default; others for ablation A1).
  ResetPolicy reset_policy = ResetPolicy::kCriticalRange;

  /// ⌈αΔ log n⌉ — passive phase length on entering any A_i.
  [[nodiscard]] std::int64_t passive_slots() const {
    return ceil_mul_log(alpha * delta, n);
  }

  /// ⌈σΔ log n⌉ — counter threshold for joining C_i.
  [[nodiscard]] std::int64_t threshold() const {
    return ceil_mul_log(sigma * delta, n);
  }

  /// ⌈γ ζ_i log n⌉ with ζ₀ = 1 and ζ_i = Δ for i > 0 (Alg. 1 line 2).
  [[nodiscard]] std::int64_t critical_range(std::int32_t color_index) const {
    const double zeta = (color_index == 0) ? 1.0 : static_cast<double>(delta);
    return ceil_mul_log(gamma * zeta, n);
  }

  /// ⌈β log n⌉ — per-request assignment broadcast window (Alg. 3 line 18).
  [[nodiscard]] std::int64_t assign_window() const {
    return ceil_mul_log(beta, n);
  }

  /// Sending probability of non-leader active nodes: 1/(κ₂Δ).
  [[nodiscard]] double p_active() const {
    return 1.0 / (static_cast<double>(kappa2) * static_cast<double>(delta));
  }

  /// Sending probability of leaders: 1/κ₂.
  [[nodiscard]] double p_leader() const {
    return 1.0 / static_cast<double>(kappa2);
  }

  /// First color a node with intra-cluster color tc verifies: tc·(κ₂+1)
  /// (Alg. 2 line 4).  Checked, in Release too: `validate` bounds it for
  /// tc ≤ Δ, but a leader re-serving a requester hands out tc past Δ.
  [[nodiscard]] std::int32_t first_verify_color(std::int32_t tc) const {
    const std::int64_t color = std::int64_t{tc} * (std::int64_t{kappa2} + 1);
    URN_CHECK_MSG(color == static_cast<std::int32_t>(color),
                  "color tc * (kappa2 + 1) overflows int32");
    return static_cast<std::int32_t>(color);
  }

  /// Δ(κ₂+1) + κ₂: the largest color a run can hand out, the Theorem 5
  /// bound that `validate` and the experiments check.  A leader's
  /// intra-cluster color tc ≤ Δ sends its node to verify colors
  /// tc·(κ₂+1) … tc·(κ₂+1) + κ₂; the paper states κ₂Δ, its O(·) absorbing
  /// the rest.  Exact in uint64 for uint32 inputs.
  [[nodiscard]] std::uint64_t color_bound() const {
    return std::uint64_t{delta} * (std::uint64_t{kappa2} + 1) + kappa2;
  }

  /// Practical defaults (calibrated in experiment E7).
  [[nodiscard]] static Params practical(std::uint64_t n, std::uint32_t delta,
                                        std::uint32_t kappa1,
                                        std::uint32_t kappa2);

  /// The paper's analytical constants (end of Sect. 4):
  ///   γ = 5κ₂ / ( [ (1/e)(1−1/κ₂) ]^{κ₁/κ₂} · [ (1/e)(1−1/(κ₂Δ)) ]^{1/κ₂} )
  ///   σ = 10e²κ₂ / ( (1−1/κ₂)(1−1/(κ₂Δ)) )
  /// plus α = 2γκ₂ + σ + 2 (Lemma 7 requires α > 2γκ₂ + σ + 1) and β = γ
  /// (Lemma 8 requires β ≥ γ).  Valid for Δ ≥ 2, κ₂ ≥ 2.
  [[nodiscard]] static Params analytical(std::uint64_t n, std::uint32_t delta,
                                         std::uint32_t kappa1,
                                         std::uint32_t kappa2);

  /// Copy with all four constants multiplied by `factor` (experiment E7).
  [[nodiscard]] Params scaled(double factor) const;

  /// Throws urn::CheckError if the parameter set is unusable, including
  /// non-finite constants, slot counts that overflow an int64, and a
  /// `color_bound()` past the int32 color range.
  void validate() const;
};

/// Δ, κ₁ and κ₂ of one graph: the estimates every node is given (Sect. 2),
/// as `measure_bounds` finds them.
struct GraphBounds {
  std::uint32_t delta = 2;   ///< max closed degree, at least 2
  std::uint32_t kappa1 = 2;  ///< at least 2
  std::uint32_t kappa2 = 2;  ///< at least kappa1
  /// False when a 2-hop neighbourhood exceeds graph::KappaOptions's exact
  /// limit and its search falls back to greedy: κ₁/κ₂ are then lower
  /// bounds, and Theorems 2–5 (like the practical windows, which scale
  /// with κ₂) need κ₂ at least the true value.
  bool exact = true;
};

/// Measure Δ, κ₁ and κ₂ over every node of `g` (graph::kappa1/kappa2,
/// exact branch and bound) with the floors `Params` needs: Δ ≥ 2, κ₁ ≥ 2,
/// κ₂ ≥ κ₁.  The one κ path for the experiments, examples and urn_sim.
[[nodiscard]] GraphBounds measure_bounds(const graph::Graph& g);

}  // namespace urn::core

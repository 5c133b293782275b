/// \file coloring.hpp
/// \brief Vertex colorings: representation, validation, quality metrics,
///        and the centralized greedy baseline.
///
/// A coloring assigns `Color` values (0-based) to nodes; `kUncolored`
/// marks nodes without a decision.  `validate` checks the paper's two
/// requirements (Sect. 5): *correctness* (no two adjacent nodes share a
/// color) and *completeness* (every node has a color).  Locality metrics
/// implement the quantities of Theorem 4: θ_v (max closed degree in N_v²)
/// and φ_v (highest color in the closed neighborhood N_v).

#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "support/rng.hpp"

namespace urn::graph {

using Color = std::int32_t;

inline constexpr Color kUncolored = -1;

/// Outcome of checking a coloring against a graph.
struct ColoringCheck {
  bool complete = false;  ///< every node colored
  bool correct = false;   ///< no monochromatic edge among colored nodes
  NodeId conflict_u = kInvalidNode;  ///< one endpoint of a violation, if any
  NodeId conflict_v = kInvalidNode;
  NodeId first_uncolored = kInvalidNode;

  [[nodiscard]] bool valid() const { return complete && correct; }
};

/// Check correctness and completeness of `colors` on g.
/// \pre colors.size() == g.num_nodes()
[[nodiscard]] ColoringCheck validate(const Graph& g,
                                     const std::vector<Color>& colors);

/// Highest color used (−1 if nothing is colored).
[[nodiscard]] Color max_color(const std::vector<Color>& colors);

/// Number of distinct colors in use (ignoring kUncolored).
[[nodiscard]] std::size_t distinct_colors(const std::vector<Color>& colors);

/// θ_v of Theorem 4 for every node v: the maximum closed degree δ_w
/// over w ∈ N_v².  O(n + m): two max passes over the closed
/// neighbourhoods, as N_v² is the union of N_u over u ∈ N_v.
[[nodiscard]] std::vector<std::uint32_t> local_density_thetas(const Graph& g);

/// φ_v of Theorem 4: the highest color assigned in the closed
/// neighborhood N_v (including v).
[[nodiscard]] Color highest_neighborhood_color(
    const Graph& g, const std::vector<Color>& colors, NodeId v);

/// First-fit greedy coloring scanning nodes in the given order;
/// uses at most Δ+1 colors.
[[nodiscard]] std::vector<Color> greedy_coloring(
    const Graph& g, std::span<const NodeId> order);

/// Greedy coloring in natural node order.
[[nodiscard]] std::vector<Color> greedy_coloring(const Graph& g);

/// Greedy coloring in uniformly random order.
[[nodiscard]] std::vector<Color> greedy_coloring_random(const Graph& g,
                                                        Rng& rng);

/// The square graph G²: an edge between every pair at distance ≤ 2.
/// Coloring G² yields a *distance-2 coloring* of G — the structure the
/// paper notes is "typically argued" necessary for an entirely
/// collision-free TDMA schedule (Sect. 1).
[[nodiscard]] Graph square(const Graph& g);

/// Greedy distance-2 coloring of g (first-fit on G² in natural order).
/// Uses at most Δ(G²)+1 ≤ κ₂Δ+… colors; valid as a coloring of G².
[[nodiscard]] std::vector<Color> greedy_distance2_coloring(const Graph& g);

/// Check that `colors` is a correct *distance-2* coloring of g.
[[nodiscard]] ColoringCheck validate_distance2(const Graph& g,
                                               const std::vector<Color>& colors);

}  // namespace urn::graph

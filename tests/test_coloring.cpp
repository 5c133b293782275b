// Tests for coloring representation, validation, quality metrics, and the
// centralized greedy baseline.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/coloring.hpp"
#include "graph/generators.hpp"
#include "support/rng.hpp"

namespace urn::graph {
namespace {

// ------------------------------------------------------------- validate ---

TEST(Validate, AcceptsProperColoring) {
  const Graph g = path_graph(4);
  const std::vector<Color> colors = {0, 1, 0, 1};
  const ColoringCheck check = validate(g, colors);
  EXPECT_TRUE(check.complete);
  EXPECT_TRUE(check.correct);
  EXPECT_TRUE(check.valid());
}

TEST(Validate, DetectsMonochromaticEdge) {
  const Graph g = path_graph(3);
  const ColoringCheck check = validate(g, {0, 0, 1});
  EXPECT_TRUE(check.complete);
  EXPECT_FALSE(check.correct);
  EXPECT_EQ(check.conflict_u, 0u);
  EXPECT_EQ(check.conflict_v, 1u);
}

TEST(Validate, DetectsUncoloredNode) {
  const Graph g = path_graph(3);
  const ColoringCheck check = validate(g, {0, kUncolored, 0});
  EXPECT_FALSE(check.complete);
  EXPECT_EQ(check.first_uncolored, 1u);
  EXPECT_TRUE(check.correct);  // colored portion is conflict-free
}

TEST(Validate, UncoloredNeighborsNeverConflict) {
  const Graph g = path_graph(2);
  const ColoringCheck check = validate(g, {kUncolored, kUncolored});
  EXPECT_TRUE(check.correct);
  EXPECT_FALSE(check.complete);
}

TEST(Validate, SizeMismatchRejected) {
  const Graph g = path_graph(3);
  EXPECT_THROW((void)validate(g, {0, 1}), CheckError);
}

// -------------------------------------------------------------- metrics ---

TEST(Metrics, MaxColorAndDistinct) {
  EXPECT_EQ(max_color({2, 5, kUncolored, 5}), 5);
  EXPECT_EQ(max_color({kUncolored}), kUncolored);
  EXPECT_EQ(distinct_colors({2, 5, kUncolored, 5}), 2u);
  EXPECT_EQ(distinct_colors({}), 0u);
}

TEST(Metrics, LocalDensityThetaOnStar) {
  const Graph g = star_graph(6);
  // The hub has closed degree 6; every node sees it within two hops.
  EXPECT_EQ(local_density_thetas(g), std::vector<std::uint32_t>(6, 6u));
}

TEST(Metrics, LocalDensityThetaOnPath) {
  const Graph g = path_graph(10);
  const std::vector<std::uint32_t> theta = local_density_thetas(g);
  ASSERT_EQ(theta.size(), 10u);
  // Interior nodes have closed degree 3.
  EXPECT_EQ(theta[5], 3u);
  // End node sees an interior node within 2 hops.
  EXPECT_EQ(theta[0], 3u);
}

/// θ_v straight from its definition: the max closed degree over the
/// 2-hop vector.
std::uint32_t brute_force_theta(const Graph& g, NodeId v) {
  std::uint32_t theta = 0;
  for (NodeId w : g.two_hop_closed(v)) {
    theta = std::max(theta, g.closed_degree(w));
  }
  return theta;
}

void expect_thetas_match_definition(const Graph& g) {
  const std::vector<std::uint32_t> theta = local_density_thetas(g);
  ASSERT_EQ(theta.size(), g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(theta[v], brute_force_theta(g, v)) << "node " << v;
  }
}

TEST(Metrics, LocalDensityThetasMatchTwoHopDefinition) {
  for (const Graph& g :
       {path_graph(1), path_graph(2), path_graph(10), cycle_graph(7),
        star_graph(6), complete_graph(5), empty_graph(4),
        square(path_graph(5)), square(star_graph(5))}) {
    expect_thetas_match_definition(g);
  }
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    expect_thetas_match_definition(
        random_udg(150, 5.0 + static_cast<double>(seed), 1.4, rng).graph);
    expect_thetas_match_definition(
        gnp(80, 0.02 * static_cast<double>(seed), rng));
  }
}

TEST(Metrics, HighestNeighborhoodColor) {
  const Graph g = path_graph(4);
  const std::vector<Color> colors = {0, 3, 1, 2};
  EXPECT_EQ(highest_neighborhood_color(g, colors, 0), 3);  // sees 1
  EXPECT_EQ(highest_neighborhood_color(g, colors, 2), 3);  // sees 1 and 3
  EXPECT_EQ(highest_neighborhood_color(g, colors, 3), 2);  // sees 2 only
}

TEST(Metrics, HighestNeighborhoodColorWithUncolored) {
  const Graph g = path_graph(2);
  EXPECT_EQ(highest_neighborhood_color(g, {kUncolored, kUncolored}, 0),
            kUncolored);
}

// --------------------------------------------------------------- greedy ---

TEST(Greedy, PathUsesTwoColors) {
  const auto colors = greedy_coloring(path_graph(10));
  EXPECT_TRUE(validate(path_graph(10), colors).valid());
  EXPECT_EQ(max_color(colors), 1);
}

TEST(Greedy, CompleteGraphUsesAllColors) {
  const Graph g = complete_graph(5);
  const auto colors = greedy_coloring(g);
  EXPECT_TRUE(validate(g, colors).valid());
  EXPECT_EQ(distinct_colors(colors), 5u);
}

TEST(Greedy, OddCycleUsesThreeColors) {
  const Graph g = cycle_graph(7);
  const auto colors = greedy_coloring(g);
  EXPECT_TRUE(validate(g, colors).valid());
  EXPECT_EQ(max_color(colors), 2);
}

// Property sweep: greedy is always valid and uses at most Δ+1 colors.
class GreedyProperty : public ::testing::TestWithParam<int> {};

TEST_P(GreedyProperty, ValidAndWithinDeltaPlusOne) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 13 + 1);
  const auto net = random_udg(150, 7.0, 1.4, rng);
  const auto colors = greedy_coloring_random(net.graph, rng);
  EXPECT_TRUE(validate(net.graph, colors).valid());
  EXPECT_LE(max_color(colors),
            static_cast<Color>(net.graph.max_degree()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyProperty, ::testing::Range(0, 10));

TEST(Greedy, ExplicitOrderIsDeterministic) {
  const Graph g = cycle_graph(6);
  const std::vector<NodeId> order = {0, 2, 4, 1, 3, 5};
  EXPECT_EQ(greedy_coloring(g, order), greedy_coloring(g, order));
}

// ------------------------------------------------- square / distance-2 ---

TEST(Square, PathSquareAddsDistanceTwoEdges) {
  const Graph sq = square(path_graph(5));
  EXPECT_TRUE(sq.has_edge(0, 1));
  EXPECT_TRUE(sq.has_edge(0, 2));
  EXPECT_FALSE(sq.has_edge(0, 3));
  EXPECT_EQ(sq.num_edges(), 7u);  // 4 path edges + 3 distance-2 edges
}

TEST(Square, StarSquareIsComplete) {
  const Graph sq = square(star_graph(5));
  EXPECT_EQ(sq.num_edges(), 10u);  // K5
}

TEST(Square, EdgelessGraphUnchanged) {
  const Graph sq = square(empty_graph(4));
  EXPECT_EQ(sq.num_edges(), 0u);
}

TEST(Distance2, GreedyIsValidOnSquare) {
  Rng rng(42);
  const auto net = random_udg(100, 7.0, 1.3, rng);
  const auto colors = greedy_distance2_coloring(net.graph);
  EXPECT_TRUE(validate_distance2(net.graph, colors).valid());
  // Also trivially a valid 1-hop coloring.
  EXPECT_TRUE(validate(net.graph, colors).valid());
}

TEST(Distance2, DetectsTwoHopConflict) {
  // Path 0-1-2: {0, 1, 0} is a fine 1-hop coloring but not distance-2.
  const Graph g = path_graph(3);
  const std::vector<Color> colors = {0, 1, 0};
  EXPECT_TRUE(validate(g, colors).valid());
  EXPECT_FALSE(validate_distance2(g, colors).correct);
}

TEST(Distance2, NeedsMoreColorsThanOneHop) {
  Rng rng(43);
  const auto net = random_udg(100, 6.0, 1.3, rng);
  const auto one_hop = greedy_coloring(net.graph);
  const auto two_hop = greedy_distance2_coloring(net.graph);
  EXPECT_GT(max_color(two_hop), max_color(one_hop));
}

}  // namespace
}  // namespace urn::graph

// Tests for independent sets and the κ₁/κ₂ computation, including the
// model-level property sweeps: UDGs satisfy κ₁ ≤ 5, κ₂ ≤ 18 (Sect. 2) and
// unit ball graphs satisfy κ₂ ≤ 4^ρ (Lemma 9).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <span>
#include <vector>

#include "graph/generators.hpp"
#include "graph/independence.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace urn::graph {
namespace {

Graph petersen() {
  // Outer 5-cycle 0..4, inner pentagram 5..9, spokes i — i+5.
  GraphBuilder b(10);
  for (NodeId i = 0; i < 5; ++i) {
    b.add_edge(i, (i + 1) % 5);
    b.add_edge(i + 5, ((i + 2) % 5) + 5);
    b.add_edge(i, i + 5);
  }
  return b.build();
}

// ---------------------------------------------------------- basic preds ---

TEST(IndependentSet, EmptySetIsIndependent) {
  const Graph g = complete_graph(4);
  EXPECT_TRUE(is_independent_set(g, std::vector<NodeId>{}));
}

TEST(IndependentSet, AdjacentPairRejected) {
  const Graph g = path_graph(3);
  EXPECT_FALSE(is_independent_set(g, std::vector<NodeId>{0, 1}));
  EXPECT_TRUE(is_independent_set(g, std::vector<NodeId>{0, 2}));
}

TEST(IndependentSet, DuplicateNodeRejected) {
  const Graph g = empty_graph(3);
  EXPECT_FALSE(is_independent_set(g, std::vector<NodeId>{1, 1}));
}

TEST(IndependentSet, MaximalityDetected) {
  const Graph g = path_graph(5);
  EXPECT_TRUE(is_maximal_independent_set(g, std::vector<NodeId>{0, 2, 4}));
  // {0, 3} is independent but not maximal: 1 is undominated? No — 1 is
  // adjacent to 0. Node 4 is adjacent to 3. All dominated => maximal.
  EXPECT_TRUE(is_maximal_independent_set(g, std::vector<NodeId>{0, 3}));
  // {0} leaves nodes 2,3,4 undominated.
  EXPECT_FALSE(is_maximal_independent_set(g, std::vector<NodeId>{0}));
  // Dependent sets are never maximal independent sets.
  EXPECT_FALSE(is_maximal_independent_set(g, std::vector<NodeId>{0, 1}));
}

// ------------------------------------------------------------ greedy MIS --

TEST(GreedyMis, OrderIsRespected) {
  const Graph g = path_graph(4);
  std::vector<NodeId> order = {1, 3, 0, 2};
  EXPECT_EQ(greedy_mis(g, order), (std::vector<NodeId>{1, 3}));
}

class GreedyMisFamilies : public ::testing::TestWithParam<int> {};

TEST_P(GreedyMisFamilies, RandomOrderProducesMaximalSet) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const auto net = random_udg(120, 7.0, 1.3, rng);
  const auto mis = greedy_mis_random(net.graph, rng);
  EXPECT_TRUE(is_maximal_independent_set(net.graph, mis));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyMisFamilies, ::testing::Range(1, 9));

// ------------------------------------------------------------- exact MIS --

TEST(ExactMis, KnownSmallGraphs) {
  std::vector<NodeId> all;
  auto nodes_of = [&all](const Graph& g) {
    all.resize(g.num_nodes());
    std::iota(all.begin(), all.end(), 0u);
    return std::span<const NodeId>(all);
  };
  {
    const Graph g = path_graph(5);
    EXPECT_EQ(max_independent_set_size(g, nodes_of(g)), 3u);
  }
  {
    const Graph g = cycle_graph(5);
    EXPECT_EQ(max_independent_set_size(g, nodes_of(g)), 2u);
  }
  {
    const Graph g = cycle_graph(6);
    EXPECT_EQ(max_independent_set_size(g, nodes_of(g)), 3u);
  }
  {
    const Graph g = complete_graph(5);
    EXPECT_EQ(max_independent_set_size(g, nodes_of(g)), 1u);
  }
  {
    const Graph g = star_graph(7);
    EXPECT_EQ(max_independent_set_size(g, nodes_of(g)), 6u);
  }
  {
    const Graph g = empty_graph(4);
    EXPECT_EQ(max_independent_set_size(g, nodes_of(g)), 4u);
  }
  {
    const Graph g = petersen();
    EXPECT_EQ(max_independent_set_size(g, nodes_of(g)), 4u);
  }
}

TEST(ExactMis, SubsetRestrictsProblem) {
  const Graph g = path_graph(6);
  // Only the induced subgraph on {0,1,2} counts: MIS {0,2}.
  const std::vector<NodeId> subset = {0, 1, 2};
  EXPECT_EQ(max_independent_set_size(g, subset), 2u);
}

TEST(ExactMis, EmptySubset) {
  const Graph g = path_graph(3);
  EXPECT_EQ(max_independent_set_size(g, std::vector<NodeId>{}), 0u);
}

TEST(ExactMis, AtLeastGreedyOnRandomGraphs) {
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = gnp(40, 0.15, rng);
    std::vector<NodeId> all(g.num_nodes());
    std::iota(all.begin(), all.end(), 0u);
    const auto exact = max_independent_set_size(g, all);
    const auto greedy = greedy_mis_random(g, rng);
    EXPECT_GE(exact, greedy.size());
  }
}

TEST(ExactMis, RejectsRepeatedIds) {
  // A repeated id has no edge to its copy, so it would count twice.
  const Graph path = path_graph(3);
  EXPECT_THROW((void)max_independent_set_size(path, std::vector<NodeId>{0, 0}),
               CheckError);
  EXPECT_THROW(
      (void)max_independent_set_size(path, std::vector<NodeId>{1, 1, 1}),
      CheckError);
  const Graph clique = complete_graph(4);
  EXPECT_THROW(
      (void)max_independent_set_size(clique, std::vector<NodeId>{2, 2}),
      CheckError);
}

TEST(ExactMis, RejectsOutOfRangeIds) {
  const Graph g = path_graph(3);
  EXPECT_THROW((void)max_independent_set_size(g, std::vector<NodeId>{3}),
               CheckError);
  EXPECT_THROW(
      (void)max_independent_set_size(g, std::vector<NodeId>{0, 1000}),
      CheckError);
}

/// α of the subgraph induced by `nodes` (at most 18), by enumerating every
/// subset: a set is independent if its lowest member has no neighbour in
/// the rest and the rest is independent.
std::uint32_t brute_force_mis(const Graph& g,
                              const std::vector<NodeId>& nodes) {
  const std::size_t k = nodes.size();
  std::vector<std::uint32_t> adj(k, 0);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      if (g.has_edge(nodes[i], nodes[j])) adj[i] |= 1u << j;
    }
  }
  std::vector<char> independent(std::size_t{1} << k, 0);
  independent[0] = 1;
  std::uint32_t best = 0;
  for (std::uint32_t mask = 1; mask < (1u << k); ++mask) {
    const std::uint32_t rest = mask & (mask - 1);
    const auto low = static_cast<std::size_t>(std::countr_zero(mask));
    independent[mask] = independent[rest] && (adj[low] & rest) == 0;
    if (independent[mask]) {
      best = std::max(best, static_cast<std::uint32_t>(std::popcount(mask)));
    }
  }
  return best;
}

TEST(ExactMis, MatchesBruteForceOnRandomInducedSubgraphs) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    Graph g;
    switch (trial % 5) {
      case 0: g = gnp(30, rng.uniform(0.1, 0.5), rng); break;
      case 1: g = random_udg(100, 5.0, 1.0, rng).graph; break;
      default:
        g = random_unit_ball(80, static_cast<std::size_t>(trial % 5 - 1),
                             3.0, rng)
                .graph;
    }
    // Half the subsets come from one 2-hop neighbourhood (dense), half
    // from the whole graph (sparse).
    std::vector<NodeId> pool;
    if (trial % 2 == 0) {
      pool = g.two_hop_closed(static_cast<NodeId>(rng.below(g.num_nodes())));
    } else {
      pool.resize(g.num_nodes());
      std::iota(pool.begin(), pool.end(), 0u);
    }
    rng.shuffle(pool);
    pool.resize(std::min<std::size_t>(pool.size(), 1 + rng.below(18)));
    EXPECT_EQ(max_independent_set_size(g, pool), brute_force_mis(g, pool))
        << "trial " << trial << ", k = " << pool.size();
  }
}

// ----------------------------------------------------------------- kappa --

TEST(Kappa, StarGraph) {
  const Graph g = star_graph(8);
  // 1-hop neighborhood of the hub contains all 7 independent leaves.
  EXPECT_EQ(kappa1(g).value, 7u);
  EXPECT_EQ(kappa2(g).value, 7u);
  EXPECT_TRUE(kappa1(g).exact);
}

TEST(Kappa, CompleteGraph) {
  const Graph g = complete_graph(6);
  EXPECT_EQ(kappa1(g).value, 1u);
  EXPECT_EQ(kappa2(g).value, 1u);
}

TEST(Kappa, PathGraph) {
  const Graph g = path_graph(9);
  // Closed 1-hop hood of an interior node: {v-1, v, v+1} → MIS 2.
  EXPECT_EQ(kappa1(g).value, 2u);
  // Closed 2-hop hood: 5 consecutive path nodes → MIS 3.
  EXPECT_EQ(kappa2(g).value, 3u);
}

TEST(Kappa, Kappa2AtLeastKappa1) {
  Rng rng(5);
  const auto net = random_udg(100, 7.0, 1.4, rng);
  EXPECT_GE(kappa2(net.graph).value, kappa1(net.graph).value);
}

// Model property (Sect. 2): every UDG is a BIG with κ₁ ≤ 5 and κ₂ ≤ 18.
class UdgKappaBounds : public ::testing::TestWithParam<int> {};

TEST_P(UdgKappaBounds, WithinUnitDiskBounds) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  const auto net = random_udg(150, 6.0, 1.0, rng);
  const auto k1 = kappa1(net.graph);
  const auto k2 = kappa2(net.graph);
  EXPECT_TRUE(k1.exact);
  EXPECT_LE(k1.value, 5u);
  EXPECT_LE(k2.value, 18u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UdgKappaBounds, ::testing::Range(0, 10));

// Lemma 9: unit ball graph over a metric with doubling dimension ρ has
// κ₂ ≤ 4^ρ. Euclidean d-space has ρ = Θ(d); for d = 1, 2, 3 we check the
// concrete bounds 4^1, 4^2, 4^3 generously hold.
class UbgKappaBounds : public ::testing::TestWithParam<std::size_t> {};

TEST_P(UbgKappaBounds, DoublingDimensionBound) {
  const std::size_t dim = GetParam();
  Rng rng(1000 + dim);
  const auto ball = random_unit_ball(120, dim, 4.0, rng);
  const auto k2 = kappa2(ball.graph);
  const double bound = std::pow(4.0, static_cast<double>(2 * dim));
  EXPECT_LE(static_cast<double>(k2.value), bound);
}

INSTANTIATE_TEST_SUITE_P(Dims, UbgKappaBounds, ::testing::Values(1u, 2u, 3u));

// κ starts each neighbourhood's search from the maximum so far; it must
// still equal the largest per-neighbourhood exact answer.
class KappaFloor : public ::testing::TestWithParam<int> {};

TEST_P(KappaFloor, EqualsLargestNeighbourhoodMis) {
  const int family = GetParam();
  Rng rng(500 + static_cast<std::uint64_t>(family));
  Graph g;
  if (family == 0) {
    g = random_udg(150, 6.0, 1.0, rng).graph;
  } else if (family <= 3) {
    g = random_unit_ball(120, static_cast<std::size_t>(family), 4.0, rng)
            .graph;
  } else {
    g = gnp(60, 0.15, rng);
  }
  std::uint32_t one_hop = 0;
  std::uint32_t two_hop = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    std::vector<NodeId> hood = {v};
    for (NodeId u : g.neighbors(v)) hood.push_back(u);
    one_hop = std::max(one_hop, max_independent_set_size(g, hood));
    two_hop =
        std::max(two_hop, max_independent_set_size(g, g.two_hop_closed(v)));
  }
  const auto k1 = kappa1(g);
  const auto k2 = kappa2(g);
  EXPECT_TRUE(k1.exact);
  EXPECT_TRUE(k2.exact);
  EXPECT_EQ(k1.value, one_hop);
  EXPECT_EQ(k2.value, two_hop);
}

// 0 = UDG, 1–3 = unit ball graph in that dimension, 4 = gnp.
INSTANTIATE_TEST_SUITE_P(Families, KappaFloor, ::testing::Range(0, 5));

// Exact κ₁/κ₂ of dense n = 256, radius 1.5 UDGs: side 9.5 is the e2_sweep
// benchmark shape, side 8 the denser one it avoided.  Recorded once with
// the earlier solver (pruning on the candidate count alone), which took
// tens of seconds per side-8 graph.
TEST(Kappa, PinnedDenseUdgValues) {
  struct Pinned {
    double side;
    std::uint64_t seed;
    std::uint32_t kappa1;
    std::uint32_t kappa2;
  };
  const Pinned pinned[] = {
      {9.5, 1, 5, 12}, {9.5, 2, 5, 12}, {9.5, 3, 5, 12}, {9.5, 4, 4, 11},
      {8.0, 1, 5, 12}, {8.0, 2, 5, 12}, {8.0, 3, 5, 13}, {8.0, 4, 5, 12},
  };
  for (const Pinned& p : pinned) {
    Rng rng(p.seed);
    const auto net = random_udg(256, p.side, 1.5, rng);
    const auto k1 = kappa1(net.graph);
    const auto k2 = kappa2(net.graph);
    EXPECT_EQ(k1.value, p.kappa1) << "side " << p.side << ", seed " << p.seed;
    EXPECT_EQ(k2.value, p.kappa2) << "side " << p.side << ", seed " << p.seed;
    EXPECT_TRUE(k1.exact);
    EXPECT_TRUE(k2.exact);
  }
}

TEST(Kappa, SampledNeverExceedsFull) {
  Rng rng(6);
  const auto net = random_udg(150, 7.0, 1.3, rng);
  const auto full = kappa2(net.graph);
  KappaOptions opts;
  opts.sample = 20;
  const auto sampled = kappa2(net.graph, opts);
  EXPECT_LE(sampled.value, full.value);
  EXPECT_FALSE(sampled.exact);  // sampling can never certify exactness
}

TEST(Kappa, GreedyFallbackStillLowerBounds) {
  Rng rng(8);
  const auto net = random_udg(120, 5.0, 1.5, rng);
  const auto exact = kappa2(net.graph);
  KappaOptions tiny;
  tiny.exact_limit = 1;  // force the greedy fallback everywhere
  const auto greedy = kappa2(net.graph, tiny);
  EXPECT_FALSE(greedy.exact);
  EXPECT_LE(greedy.value, exact.value);
  EXPECT_GE(greedy.value, 1u);
}

}  // namespace
}  // namespace urn::graph

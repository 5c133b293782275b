// Unit tests for the graph core: builder, CSR accessors, traversal.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/traversal.hpp"
#include "support/rng.hpp"

namespace urn::graph {
namespace {

Graph triangle_plus_tail() {
  // 0-1-2 triangle, tail 2-3-4.
  GraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  b.add_edge(2, 3);
  b.add_edge(3, 4);
  return b.build();
}

// -------------------------------------------------------------- builder ---

TEST(GraphBuilder, EmptyGraph) {
  const Graph g = GraphBuilder(4).build();
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.degree(0), 0u);
}

TEST(GraphBuilder, ZeroNodes) {
  const Graph g = GraphBuilder(0).build();
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(GraphBuilder, DuplicateEdgesCollapse) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 0);
  b.add_edge(0, 1);
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
}

TEST(GraphBuilder, SelfLoopsDropped) {
  GraphBuilder b(2);
  b.add_edge(0, 0);
  b.add_edge(0, 1);
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_FALSE(g.has_edge(0, 0));
}

TEST(GraphBuilder, OutOfRangeEndpointRejected) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(0, 2), CheckError);
}

TEST(GraphBuilder, ReusableAfterBuild) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  const Graph g1 = b.build();
  b.add_edge(1, 2);
  const Graph g2 = b.build();
  EXPECT_EQ(g1.num_edges(), 1u);
  EXPECT_EQ(g2.num_edges(), 2u);
}

// The CSR as two flat arrays, read back through the public accessors:
// offsets[v] is where v's list starts in the concatenated lists.
struct Csr {
  std::vector<std::uint32_t> offsets{0};
  std::vector<NodeId> adjacency;
  bool operator==(const Csr&) const = default;
};

Csr csr_of(const Graph& g) {
  Csr c;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto nb = g.neighbors(v);
    c.adjacency.insert(c.adjacency.end(), nb.begin(), nb.end());
    c.offsets.push_back(static_cast<std::uint32_t>(c.adjacency.size()));
  }
  return c;
}

// The CSR `build` must produce, from a std::set of ordered pairs: both
// directions of every non-loop edge, each once, sorted by (u, v).
Csr reference_csr(std::size_t n,
                  const std::vector<std::pair<NodeId, NodeId>>& edges) {
  std::set<std::pair<NodeId, NodeId>> directed;
  for (auto [u, v] : edges) {
    if (u == v) continue;
    directed.emplace(u, v);
    directed.emplace(v, u);
  }
  Csr c;
  c.offsets.assign(n + 1, 0);
  for (auto [u, v] : directed) {
    ++c.offsets[u + 1];
    c.adjacency.push_back(v);
  }
  for (std::size_t i = 1; i <= n; ++i) c.offsets[i] += c.offsets[i - 1];
  return c;
}

TEST(GraphBuilder, MatchesOrderedPairSetReference) {
  Rng rng(0x6B1D);
  for (std::size_t n : {0u, 1u, 2u, 50u, 300u}) {
    for (int rep = 0; rep < 4; ++rep) {
      // Random edges over the first ~2/3 of the ids (the rest stay
      // isolated), then duplicates, reversed duplicates and self-loops.
      std::vector<std::pair<NodeId, NodeId>> edges;
      const std::size_t live = (2 * n + 2) / 3;
      for (std::size_t e = 0; e < 3 * n; ++e) {
        const auto u = static_cast<NodeId>(rng.below(live));
        const auto v = static_cast<NodeId>(rng.below(live));
        edges.emplace_back(u, v);
        if (rng.chance(0.2)) edges.emplace_back(u, v);
        if (rng.chance(0.2)) edges.emplace_back(v, u);
        if (rng.chance(0.1)) edges.emplace_back(u, u);
      }
      rng.shuffle(edges);
      GraphBuilder b(n);
      for (auto [u, v] : edges) b.add_edge(u, v);
      const Graph g = b.build();
      ASSERT_EQ(g.num_nodes(), n);
      EXPECT_EQ(csr_of(g), reference_csr(n, edges))
          << "n=" << n << " rep=" << rep;
    }
  }
}

// ------------------------------------------------------------ accessors ---

TEST(Graph, NeighborsAreSortedAndSymmetric) {
  const Graph g = triangle_plus_tail();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto nb = g.neighbors(v);
    EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
    for (NodeId u : nb) EXPECT_TRUE(g.has_edge(u, v));
  }
}

TEST(Graph, DegreesMatch) {
  const Graph g = triangle_plus_tail();
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(2), 3u);
  EXPECT_EQ(g.degree(4), 1u);
  EXPECT_EQ(g.closed_degree(2), 4u);  // paper convention: includes self
  EXPECT_EQ(g.max_degree(), 3u);
  EXPECT_EQ(g.max_closed_degree(), 4u);
  EXPECT_DOUBLE_EQ(g.average_degree(), 2.0);  // 2m/n = 10/5
}

TEST(Graph, HasEdge) {
  const Graph g = triangle_plus_tail();
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 3));
  EXPECT_FALSE(g.has_edge(0, 4));
}

TEST(Graph, TwoHopClosedOnPath) {
  const Graph g = path_graph(6);  // 0-1-2-3-4-5
  EXPECT_EQ(g.two_hop_closed(0), (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(g.two_hop_closed(2), (std::vector<NodeId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(g.two_hop_closed(5), (std::vector<NodeId>{3, 4, 5}));
}

TEST(Graph, TwoHopClosedOnStar) {
  const Graph g = star_graph(5);
  // Everything is within two hops of everything through the hub.
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_EQ(g.two_hop_closed(v).size(), 5u);
  }
}

TEST(Graph, TwoHopClosedIsolatedNode) {
  const Graph g = empty_graph(3);
  EXPECT_EQ(g.two_hop_closed(1), (std::vector<NodeId>{1}));
}

// The flagged walk against BFS distance <= 2.  The calls alternate between
// two graphs of different sizes on one thread, so the per-thread flags are
// reused (and must come back clear) across sizes, larger and smaller.
TEST(Graph, TwoHopClosedMatchesBfsAcrossInterleavedGraphs) {
  Rng rng(0x2409);
  const std::vector<std::pair<Graph, Graph>> pairs = {
      {random_udg(60, 4.0, 1.2, rng).graph,
       random_udg(400, 9.0, 1.3, rng).graph},
      {gnp(350, 0.03, rng), gnp(40, 0.2, rng)},
      {random_udg(200, 6.0, 1.5, rng).graph, gnp(90, 0.05, rng)},
  };
  const auto within_two = [](const Graph& g, NodeId v) {
    const auto dist = bfs_distances(g, v);
    std::vector<NodeId> hood;
    for (NodeId w = 0; w < g.num_nodes(); ++w) {
      if (dist[w] <= 2) hood.push_back(w);
    }
    return hood;
  };
  for (const auto& [a, b] : pairs) {
    const std::size_t most = std::max(a.num_nodes(), b.num_nodes());
    for (std::size_t i = 0; i < most; ++i) {
      for (const Graph* g : {&a, &b}) {
        if (i >= g->num_nodes()) continue;
        const auto v = static_cast<NodeId>(i);
        ASSERT_EQ(g->two_hop_closed(v), within_two(*g, v))
            << "n=" << g->num_nodes() << " v=" << v;
      }
    }
  }
}

TEST(Graph, MaxClosedDegreeOfEdgeless) {
  const Graph g = empty_graph(3);
  EXPECT_EQ(g.max_closed_degree(), 1u);
}

// ------------------------------------------------------------ traversal ---

TEST(Traversal, BfsDistancesOnPath) {
  const Graph g = path_graph(5);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
}

TEST(Traversal, BfsDistancesOnCycle) {
  const Graph g = cycle_graph(6);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist, (std::vector<std::uint32_t>{0, 1, 2, 3, 2, 1}));
}

TEST(Traversal, BfsUnreachableMarked) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  const Graph g = b.build();
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], kUnreachable);
  EXPECT_EQ(dist[3], kUnreachable);
}

TEST(Traversal, ComponentsOfDisjointCliques) {
  GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(3, 4);
  const Graph g = b.build();
  const Components comps = connected_components(g);
  EXPECT_EQ(comps.count, 3u);  // {0,1,2}, {3,4}, {5}
  EXPECT_EQ(comps.id[0], comps.id[1]);
  EXPECT_EQ(comps.id[1], comps.id[2]);
  EXPECT_EQ(comps.id[3], comps.id[4]);
  EXPECT_NE(comps.id[0], comps.id[3]);
  EXPECT_NE(comps.id[3], comps.id[5]);
}

TEST(Traversal, IsConnected) {
  EXPECT_TRUE(is_connected(path_graph(10)));
  EXPECT_TRUE(is_connected(GraphBuilder(0).build()));
  EXPECT_FALSE(is_connected(empty_graph(2)));
}

TEST(Traversal, DiameterKnownFamilies) {
  EXPECT_EQ(diameter(path_graph(7)), 6u);
  EXPECT_EQ(diameter(cycle_graph(8)), 4u);
  EXPECT_EQ(diameter(complete_graph(5)), 1u);
  EXPECT_EQ(diameter(star_graph(6)), 2u);
  EXPECT_EQ(diameter(empty_graph(2)), kUnreachable);
}

}  // namespace
}  // namespace urn::graph

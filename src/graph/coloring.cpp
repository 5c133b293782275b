#include "graph/coloring.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_set>

namespace urn::graph {

ColoringCheck validate(const Graph& g, const std::vector<Color>& colors) {
  URN_CHECK(colors.size() == g.num_nodes());
  ColoringCheck check;
  check.complete = true;
  check.correct = true;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (colors[v] == kUncolored) {
      if (check.complete) {
        check.complete = false;
        check.first_uncolored = v;
      }
      continue;
    }
    for (NodeId u : g.neighbors(v)) {
      if (u > v && colors[u] != kUncolored && colors[u] == colors[v]) {
        if (check.correct) {
          check.correct = false;
          check.conflict_u = v;
          check.conflict_v = u;
        }
      }
    }
  }
  return check;
}

Color max_color(const std::vector<Color>& colors) {
  Color best = kUncolored;
  for (Color c : colors) best = std::max(best, c);
  return best;
}

std::size_t distinct_colors(const std::vector<Color>& colors) {
  std::unordered_set<Color> seen;
  for (Color c : colors) {
    if (c != kUncolored) seen.insert(c);
  }
  return seen.size();
}

std::vector<std::uint32_t> local_density_thetas(const Graph& g) {
  const std::size_t n = g.num_nodes();
  std::vector<std::uint32_t> one_hop(n);  // max δ_w over w ∈ N_v
  for (NodeId v = 0; v < n; ++v) {
    one_hop[v] = g.closed_degree(v);
    for (NodeId u : g.neighbors(v)) {
      one_hop[v] = std::max(one_hop[v], g.closed_degree(u));
    }
  }
  std::vector<std::uint32_t> theta = one_hop;  // then max over N_v of it
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId u : g.neighbors(v)) theta[v] = std::max(theta[v], one_hop[u]);
  }
  return theta;
}

Color highest_neighborhood_color(const Graph& g,
                                 const std::vector<Color>& colors,
                                 NodeId v) {
  URN_CHECK(colors.size() == g.num_nodes());
  Color best = colors[v];
  for (NodeId u : g.neighbors(v)) best = std::max(best, colors[u]);
  return best;
}

std::vector<Color> greedy_coloring(const Graph& g,
                                   std::span<const NodeId> order) {
  std::vector<Color> colors(g.num_nodes(), kUncolored);
  std::vector<bool> used;
  for (NodeId v : order) {
    URN_CHECK(v < g.num_nodes());
    used.assign(g.degree(v) + 2, false);
    for (NodeId u : g.neighbors(v)) {
      const Color c = colors[u];
      if (c != kUncolored && static_cast<std::size_t>(c) < used.size()) {
        used[static_cast<std::size_t>(c)] = true;
      }
    }
    Color pick = 0;
    while (used[static_cast<std::size_t>(pick)]) ++pick;
    colors[v] = pick;
  }
  return colors;
}

std::vector<Color> greedy_coloring(const Graph& g) {
  std::vector<NodeId> order(g.num_nodes());
  std::iota(order.begin(), order.end(), 0u);
  return greedy_coloring(g, order);
}

std::vector<Color> greedy_coloring_random(const Graph& g, Rng& rng) {
  std::vector<NodeId> order(g.num_nodes());
  std::iota(order.begin(), order.end(), 0u);
  rng.shuffle(order);
  return greedy_coloring(g, order);
}

Graph square(const Graph& g) {
  GraphBuilder builder(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (NodeId w : g.two_hop_closed(v)) {
      if (w > v) builder.add_edge(v, w);
    }
  }
  return builder.build();
}

std::vector<Color> greedy_distance2_coloring(const Graph& g) {
  return greedy_coloring(square(g));
}

ColoringCheck validate_distance2(const Graph& g,
                                 const std::vector<Color>& colors) {
  return validate(square(g), colors);
}

}  // namespace urn::graph

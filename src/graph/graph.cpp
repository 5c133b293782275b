#include "graph/graph.hpp"

#include <algorithm>
#include <cstdint>

namespace urn::graph {

std::uint32_t Graph::max_closed_degree() const {
  return max_degree() + (num_nodes() > 0 ? 1u : 0u);
}

std::uint32_t Graph::max_degree() const {
  std::uint32_t best = 0;
  for (NodeId v = 0; v < num_nodes(); ++v) best = std::max(best, degree(v));
  return best;
}

double Graph::average_degree() const {
  if (num_nodes() == 0) return 0.0;
  return 2.0 * static_cast<double>(num_edges()) /
         static_cast<double>(num_nodes());
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  URN_DCHECK(u < num_nodes() && v < num_nodes());
  const auto nb = neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

std::vector<NodeId> Graph::two_hop_closed(NodeId v) const {
  URN_DCHECK(v < num_nodes());
  // One flag per node id, all clear between calls.  thread_local because
  // trial loops share one graph across workers, and Graph holds no mutable
  // state; it grows to the largest graph this thread has walked.
  static thread_local std::vector<std::uint8_t> seen;
  if (seen.size() < num_nodes()) seen.resize(num_nodes(), 0);
  // Reserve the walk's length up front: no allocation can then throw
  // while flags are set.
  std::size_t walk = 1 + degree(v);
  for (NodeId u : neighbors(v)) walk += degree(u);
  std::vector<NodeId> out;
  out.reserve(walk);
  const auto visit = [&](NodeId w) {
    if (seen[w] == 0) {
      seen[w] = 1;
      out.push_back(w);
    }
  };
  visit(v);
  for (NodeId u : neighbors(v)) {
    visit(u);
    for (NodeId w : neighbors(u)) visit(w);
  }
  for (NodeId w : out) seen[w] = 0;
  return out;
}

void GraphBuilder::add_edge(NodeId u, NodeId v) {
  URN_CHECK_MSG(u < num_nodes_ && v < num_nodes_,
                "edge endpoint out of range: " << u << "," << v);
  edges_.emplace_back(u, v);
}

Graph GraphBuilder::build() const {
  URN_CHECK_MSG(edges_.size() <= UINT32_MAX / 2,
                "too many edges for 32-bit offsets: " << edges_.size());
  Graph g;
  auto& offsets = g.offsets_;
  auto& adj = g.adjacency_;
  offsets.assign(num_nodes_ + 1, 0);

  // Bucket by endpoint: count both ends of every non-loop edge, then
  // scatter each end's partner into its bucket (duplicates included).
  for (auto [u, v] : edges_) {
    if (u == v) continue;
    ++offsets[u + 1];
    ++offsets[v + 1];
  }
  for (std::size_t i = 1; i <= num_nodes_; ++i) offsets[i] += offsets[i - 1];
  adj.resize(offsets[num_nodes_]);
  {
    std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (auto [u, v] : edges_) {
      if (u == v) continue;
      adj[cursor[u]++] = v;
      adj[cursor[v]++] = u;
    }
  }

  // Sort each bucket, drop its duplicates, and slide what is left down
  // over the duplicates dropped before it.
  std::uint32_t kept = 0;
  for (std::size_t u = 0; u < num_nodes_; ++u) {
    const auto first = adj.begin() + offsets[u];
    const auto last = adj.begin() + offsets[u + 1];
    std::sort(first, last);
    const auto end = std::unique(first, last);
    const auto dest = adj.begin() + kept;
    if (dest != first) std::copy(first, end, dest);
    offsets[u] = kept;
    kept += static_cast<std::uint32_t>(end - first);
  }
  offsets[num_nodes_] = kept;
  if (kept < adj.size()) {
    adj.resize(kept);
    adj.shrink_to_fit();
  }
  return g;
}

}  // namespace urn::graph

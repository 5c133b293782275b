/// \file graph.hpp
/// \brief Immutable undirected graph in compressed-sparse-row form.
///
/// All algorithms in the library (the coloring protocol, the simulator, the
/// independence analysis) operate on this one representation.  Graphs are
/// built through `GraphBuilder`, which deduplicates and symmetrizes edges,
/// then frozen; neighbor lists are sorted so adjacency tests are
/// O(log deg).
///
/// Convention from the paper (Sect. 2): the *degree* δ_v = |N_v| counts the
/// node itself, and N_v denotes the closed neighborhood.  The accessors
/// below expose both open and closed variants explicitly.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "support/check.hpp"

namespace urn::graph {

using NodeId = std::uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// Immutable undirected simple graph (CSR).
class Graph {
 public:
  Graph() = default;

  [[nodiscard]] std::size_t num_nodes() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  [[nodiscard]] std::size_t num_edges() const { return adjacency_.size() / 2; }

  /// Sorted open neighborhood of v (excludes v).
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const {
    URN_DCHECK(v < num_nodes());
    return {adjacency_.data() + offsets_[v],
            adjacency_.data() + offsets_[v + 1]};
  }

  /// Open degree |N(v) \ {v}|.
  [[nodiscard]] std::uint32_t degree(NodeId v) const {
    URN_DCHECK(v < num_nodes());
    return offsets_[v + 1] - offsets_[v];
  }

  /// Closed degree δ_v = |N_v| (paper convention: includes v).
  [[nodiscard]] std::uint32_t closed_degree(NodeId v) const {
    return degree(v) + 1;
  }

  /// Maximum closed degree Δ over all nodes (paper's Δ); 1 for edgeless.
  [[nodiscard]] std::uint32_t max_closed_degree() const;

  /// Maximum open degree over all nodes; 0 for edgeless graphs.
  [[nodiscard]] std::uint32_t max_degree() const;

  /// Average open degree.
  [[nodiscard]] double average_degree() const;

  /// O(log deg) adjacency test.
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  /// Closed 2-hop neighborhood N_v² (nodes within distance ≤ 2, including
  /// v itself) in walk order: v, then each neighbour u in id order, each
  /// followed by those of u's neighbours not met before.  The order is
  /// part of the contract (κ₂'s clique cover relies on it) and nothing
  /// sorts the ids.  One walk over the 2-walks from v (about δ_v² steps)
  /// pushes each id the first time a per-thread flag array meets it, then
  /// clears those flags.  The flag array is `thread_local` (n bytes, grown
  /// to the largest graph the thread has walked), so concurrent calls on
  /// one shared graph are safe and the graph itself stays immutable.
  [[nodiscard]] std::vector<NodeId> two_hop_closed(NodeId v) const;

 private:
  friend class GraphBuilder;

  std::vector<std::uint32_t> offsets_;  // size n+1
  std::vector<NodeId> adjacency_;       // size 2m, sorted per node
};

/// Incremental edge-list builder; `build()` symmetrizes, deduplicates,
/// drops self-loops, and freezes into CSR form.
class GraphBuilder {
 public:
  explicit GraphBuilder(std::size_t num_nodes) : num_nodes_(num_nodes) {}

  /// Record an undirected edge {u, v}. Self-loops and duplicates are
  /// tolerated and removed at build time.
  void add_edge(NodeId u, NodeId v);

  [[nodiscard]] std::size_t num_nodes() const { return num_nodes_; }

  /// Freeze into an immutable Graph. The builder may be reused afterwards.
  /// Buckets the edge list by endpoint (count, prefix-sum, scatter into
  /// one id array), then sorts and deduplicates each node's list in place:
  /// O(n + m log Δ) time and one transient array of 4-byte ids, with no
  /// global sort.  The same edge list, in any order, gives the same CSR.
  [[nodiscard]] Graph build() const;

 private:
  std::size_t num_nodes_;
  std::vector<std::pair<NodeId, NodeId>> edges_;
};

}  // namespace urn::graph

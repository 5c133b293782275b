/// \file independence.hpp
/// \brief Independent sets and the bounded-independence parameters κ₁, κ₂.
///
/// The paper's model (Sect. 2) characterizes a bounded independence graph
/// by κ₁ / κ₂ — the largest independent set in any closed 1-hop / 2-hop
/// neighborhood.  Maximum independent set is NP-hard in general, but the
/// neighborhoods of the graphs we study are small, so an exact bitset
/// branch and bound is feasible.  It bounds a candidate set by a greedy
/// cover with cliques of G (an independent set takes at most one vertex
/// of each): the colouring bound of max-clique search, applied to the
/// complement.  κ₁ / κ₂ start each neighborhood's search from the maximum
/// so far, so a neighborhood whose cover cannot beat it stops at the root.
/// A greedy fallback (lower bound) kicks in beyond a configurable
/// subproblem size.
///
/// A bitset row of the set is built 64 positions at a time: each member's
/// one-bit mask is written into a per-node word, and a row word is the OR
/// of the masks of its node's neighbours, with no branch per neighbour.
/// The greedy cover takes candidates in set order, so the order decides
/// how tight the bound is.  κ₂ hands the solver v's 2-hop walk reversed
/// (`Graph::two_hop_closed`, far ring first): nodes reached through one
/// neighbour sit side by side and each clique grows from nearby nodes,
/// which on geometric graphs closes more neighborhoods at the root.  The
/// order is a locality heuristic: on graphs without geometry (G(n, p))
/// it can cost time, and the answer is the same in every order.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "support/rng.hpp"

namespace urn::graph {

/// True if no two nodes in `nodes` are adjacent in g.
[[nodiscard]] bool is_independent_set(const Graph& g,
                                      std::span<const NodeId> nodes);

/// True if `nodes` is independent and no further node can be added
/// (i.e. a maximal independent set).
[[nodiscard]] bool is_maximal_independent_set(const Graph& g,
                                              std::span<const NodeId> nodes);

/// Greedy maximal independent set scanning nodes in the given order.
[[nodiscard]] std::vector<NodeId> greedy_mis(const Graph& g,
                                             std::span<const NodeId> order);

/// Greedy MIS in uniformly random order.
[[nodiscard]] std::vector<NodeId> greedy_mis_random(const Graph& g, Rng& rng);

/// Exact maximum-independent-set size of the subgraph induced by `nodes`,
/// via branch and bound with the clique-cover bound.  Intended for
/// neighborhood-sized subproblems.  The order of `nodes` moves only the
/// time: the cover follows it (see the file comment).
/// \pre nodes.size() <= 4096 (bitset-backed).
/// \pre `nodes` holds distinct ids < g.num_nodes(); a repeated or
///      out-of-range id throws CheckError (checked in Release too).
[[nodiscard]] std::uint32_t max_independent_set_size(
    const Graph& g, std::span<const NodeId> nodes);

/// Result of a κ computation.
struct KappaResult {
  std::uint32_t value = 0;  ///< the (lower-bound or exact) κ
  bool exact = true;        ///< false if any neighborhood used the greedy fallback
};

/// Options controlling the κ computation cost.
struct KappaOptions {
  /// Neighborhoods larger than this use a greedy lower bound instead of
  /// exact branch and bound.
  std::size_t exact_limit = 160;
  /// If > 0, evaluate only this many uniformly sampled nodes (plus the
  /// highest-degree node) instead of all nodes.  A sample can only
  /// under-estimate κ, so `core::measure_bounds` never samples; the last
  /// caller is perfbench's `sampled_kappa_s` (the `graph.kappa_s` timer),
  /// and the field goes once that timer measures exact κ.
  std::size_t sample = 0;
  /// RNG seed used when sampling.
  std::uint64_t seed = 1;
};

/// κ₁: max independent set size over all closed 1-hop neighborhoods.
[[nodiscard]] KappaResult kappa1(const Graph& g, const KappaOptions& opts = {});

/// κ₂: max independent set size over all closed 2-hop neighborhoods.
[[nodiscard]] KappaResult kappa2(const Graph& g, const KappaOptions& opts = {});

}  // namespace urn::graph

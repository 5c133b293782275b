#include "graph/independence.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>

namespace urn::graph {

bool is_independent_set(const Graph& g, std::span<const NodeId> nodes) {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      if (nodes[i] == nodes[j] || g.has_edge(nodes[i], nodes[j])) {
        return false;
      }
    }
  }
  return true;
}

bool is_maximal_independent_set(const Graph& g,
                                std::span<const NodeId> nodes) {
  if (!is_independent_set(g, nodes)) return false;
  std::vector<bool> in_set(g.num_nodes(), false);
  std::vector<bool> dominated(g.num_nodes(), false);
  for (NodeId v : nodes) {
    in_set[v] = true;
    dominated[v] = true;
    for (NodeId u : g.neighbors(v)) dominated[u] = true;
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!dominated[v]) return false;
  }
  return true;
}

std::vector<NodeId> greedy_mis(const Graph& g,
                               std::span<const NodeId> order) {
  std::vector<bool> blocked(g.num_nodes(), false);
  std::vector<NodeId> mis;
  for (NodeId v : order) {
    URN_CHECK(v < g.num_nodes());
    if (blocked[v]) continue;
    mis.push_back(v);
    blocked[v] = true;
    for (NodeId u : g.neighbors(v)) blocked[u] = true;
  }
  return mis;
}

std::vector<NodeId> greedy_mis_random(const Graph& g, Rng& rng) {
  std::vector<NodeId> order(g.num_nodes());
  std::iota(order.begin(), order.end(), 0u);
  rng.shuffle(order);
  return greedy_mis(g, order);
}

namespace {

constexpr std::uint32_t kAbsent = std::numeric_limits<std::uint32_t>::max();

/// Maximum independent sets of induced subgraphs of one graph.
///
/// The exact search is maximum-clique branch and bound on the complement
/// graph: Tomita and Seki's MCQ colouring bound in the bitset form of San
/// Segundo et al.'s BBMC.  The candidates are covered greedily by cliques
/// of G; an independent set holds at most one vertex of each, so `taken +
/// cliques <= best` prunes.  The node index and every buffer live as long
/// as the solver and are reused by each set it solves.
class MisSolver {
 public:
  explicit MisSolver(const Graph& g) : g_(g), pos_(g.num_nodes(), kAbsent) {}

  /// max(floor, α(G[nodes])).  A set whose root bound cannot beat `floor`
  /// returns at once.
  std::uint32_t exact(std::span<const NodeId> nodes, std::uint32_t floor) {
    index(nodes);
    const std::size_t k = nodes.size();
    words_ = (k + 63) / 64;
    adj_.assign(k * words_, 0);
    for (std::size_t i = 0; i < k; ++i) {
      for (NodeId u : g_.neighbors(nodes[i])) {
        if (pos_[u] != kAbsent) set(row(i), pos_[u]);
      }
    }
    unindex(nodes);
    left_.resize(words_);
    clique_.resize(words_);
    grow(0);
    std::uint64_t* all = cand(0);
    std::fill(all, all + words_, 0);
    for (std::size_t v = 0; v < k; ++v) set(all, v);
    best_ = floor;
    expand(0);
    return best_;
  }

  /// Greedy lower bound for a set too large to solve exactly: first fit in
  /// order of induced degree, then id.
  std::uint32_t greedy(std::span<const NodeId> nodes) {
    index(nodes);
    std::vector<std::uint32_t> deg(nodes.size(), 0);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      for (NodeId u : g_.neighbors(nodes[i])) deg[i] += pos_[u] != kAbsent;
    }
    std::vector<std::uint32_t> order(nodes.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return deg[a] != deg[b] ? deg[a] < deg[b] : nodes[a] < nodes[b];
              });
    std::vector<bool> blocked(nodes.size(), false);
    std::uint32_t size = 0;
    for (std::uint32_t i : order) {
      if (blocked[i]) continue;
      ++size;
      for (NodeId u : g_.neighbors(nodes[i])) {
        if (pos_[u] != kAbsent) blocked[pos_[u]] = true;
      }
    }
    unindex(nodes);
    return size;
  }

 private:
  /// A vertex of the clique cover and the 1-based index of its clique.
  struct Pick {
    std::uint32_t v;
    std::uint32_t cls;
  };

  static void set(std::uint64_t* bits, std::size_t i) {
    bits[i >> 6] |= 1ULL << (i & 63);
  }

  [[nodiscard]] std::uint64_t* row(std::size_t v) {
    return adj_.data() + v * words_;
  }
  [[nodiscard]] std::uint64_t* cand(std::size_t depth) {
    return cand_.data() + depth * words_;
  }
  /// Makes room for the candidate set of `depth`: one per level reached.
  void grow(std::size_t depth) {
    cand_.resize(std::max(cand_.size(), (depth + 1) * words_));
  }

  /// pos_[nodes[i]] = i; rejects ids out of range and repeated ids.
  void index(std::span<const NodeId> nodes) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const NodeId v = nodes[i];
      URN_CHECK_MSG(v < g_.num_nodes(), "node id " << v << " out of range, n = "
                                                   << g_.num_nodes());
      URN_CHECK_MSG(pos_[v] == kAbsent, "node id " << v << " repeated");
      pos_[v] = static_cast<std::uint32_t>(i);
    }
  }
  void unindex(std::span<const NodeId> nodes) {
    for (NodeId v : nodes) pos_[v] = kAbsent;
  }

  /// Searches the candidates cand(depth), `depth` vertices taken.
  void expand(std::uint32_t depth) {
    best_ = std::max(best_, depth);  // the vertices taken are independent
    // Only a vertex whose clique index reaches `need` can still beat best_.
    const std::uint32_t need = best_ - depth + 1;
    const std::size_t base = picks_.size();
    std::copy_n(cand(depth), words_, left_.begin());
    std::uint32_t cls = 0;
    for (std::size_t first = 0; first < words_;) {
      if (left_[first] == 0) {
        ++first;
        continue;
      }
      ++cls;
      std::copy(left_.begin(), left_.end(), clique_.begin());
      for (std::size_t w = first; w < words_;) {
        if (clique_[w] == 0) {
          ++w;
          continue;
        }
        const auto v = static_cast<std::uint32_t>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(clique_[w])));
        left_[w] &= ~(1ULL << (v & 63));
        const std::uint64_t* r = row(v);
        for (std::size_t x = w; x < words_; ++x) clique_[x] &= r[x];
        if (cls >= need) picks_.push_back({v, cls});
      }
    }
    // Branch in reverse cover order: take v, then leave it out.
    grow(depth + 1);
    for (std::size_t i = picks_.size(); i-- > base;) {
      const Pick p = picks_[i];
      if (depth + p.cls <= best_) break;
      // expand() may grow cand_, so the pointers are taken afresh.
      std::uint64_t* here = cand(depth);
      std::uint64_t* next = cand(depth + 1);
      here[p.v >> 6] &= ~(1ULL << (p.v & 63));
      const std::uint64_t* r = row(p.v);
      for (std::size_t w = 0; w < words_; ++w) next[w] = here[w] & ~r[w];
      expand(depth + 1);
    }
    picks_.resize(base);
  }

  const Graph& g_;
  std::vector<std::uint32_t> pos_;  ///< node → position, kAbsent outside
  std::size_t words_ = 0;
  std::vector<std::uint64_t> adj_;     ///< a row of words_ words per vertex
  std::vector<std::uint64_t> cand_;    ///< one candidate set per depth
  std::vector<std::uint64_t> left_;    ///< vertices not yet covered
  std::vector<std::uint64_t> clique_;  ///< vertices the clique may still take
  std::vector<Pick> picks_;            ///< a stack of per-depth covers
  std::uint32_t best_ = 0;
};

std::vector<NodeId> nodes_to_evaluate(const Graph& g,
                                      const KappaOptions& opts) {
  std::vector<NodeId> eval;
  if (opts.sample == 0 || opts.sample >= g.num_nodes()) {
    eval.resize(g.num_nodes());
    std::iota(eval.begin(), eval.end(), 0u);
    return eval;
  }
  Rng rng(opts.seed);
  std::vector<NodeId> all(g.num_nodes());
  std::iota(all.begin(), all.end(), 0u);
  rng.shuffle(all);
  eval.assign(all.begin(),
              all.begin() + static_cast<std::ptrdiff_t>(opts.sample));
  // Always include the max-degree node: the κ maximum is usually there.
  NodeId densest = 0;
  for (NodeId v = 1; v < g.num_nodes(); ++v) {
    if (g.degree(v) > g.degree(densest)) densest = v;
  }
  eval.push_back(densest);
  return eval;
}

std::vector<NodeId> one_hop_closed(const Graph& g, NodeId v) {
  std::vector<NodeId> hood{v};
  hood.insert(hood.end(), g.neighbors(v).begin(), g.neighbors(v).end());
  return hood;
}

std::vector<NodeId> two_hop_closed(const Graph& g, NodeId v) {
  return g.two_hop_closed(v);
}

/// The largest independent set over hood_of(g, v) for the evaluated nodes
/// v.  Each exact search starts from the maximum so far, which it only has
/// to beat; hoods above `exact_limit` take the greedy lower bound.
KappaResult kappa_over(const Graph& g, const KappaOptions& opts,
                       std::vector<NodeId> (*hood_of)(const Graph&, NodeId)) {
  KappaResult result;
  MisSolver solver(g);
  for (NodeId v : nodes_to_evaluate(g, opts)) {
    const std::vector<NodeId> hood = hood_of(g, v);
    if (hood.size() <= opts.exact_limit) {
      result.value = solver.exact(hood, result.value);
    } else {
      result.exact = false;
      result.value = std::max(result.value, solver.greedy(hood));
    }
  }
  if (opts.sample != 0 && opts.sample < g.num_nodes()) result.exact = false;
  return result;
}

}  // namespace

std::uint32_t max_independent_set_size(const Graph& g,
                                       std::span<const NodeId> nodes) {
  URN_CHECK(nodes.size() <= 4096);
  return MisSolver(g).exact(nodes, 0);
}

KappaResult kappa1(const Graph& g, const KappaOptions& opts) {
  return kappa_over(g, opts, one_hop_closed);
}

KappaResult kappa2(const Graph& g, const KappaOptions& opts) {
  return kappa_over(g, opts, two_hop_closed);
}

}  // namespace urn::graph

// Tests for the non-aligned-slots engine (Sect. 2's "practical
// non-aligned case").

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "core/protocol.hpp"
#include "core/runner.hpp"
#include "graph/coloring.hpp"
#include "graph/generators.hpp"
#include "radio/engine.hpp"
#include "radio/misaligned_engine.hpp"
#include "support/rng.hpp"

namespace urn::radio {
namespace {

/// Transmits in the listed *local* slots; records receptions.
struct HalfScript {
  NodeId id = graph::kInvalidNode;
  std::vector<Slot> tx_slots;
  std::vector<std::pair<Slot, Message>> received;

  void on_wake(SlotContext&) {}
  std::optional<Message> on_slot(SlotContext& ctx) {
    for (Slot s : tx_slots) {
      if (s == ctx.now) return make_decided(id, static_cast<int>(ctx.now));
    }
    return std::nullopt;
  }
  void on_receive(SlotContext& ctx, const Message& msg) {
    received.emplace_back(ctx.now, msg);
  }
  [[nodiscard]] bool decided() const { return false; }
};

MisalignedEngine<HalfScript> make(const graph::Graph& g,
                                  std::vector<std::vector<Slot>> scripts,
                                  std::vector<std::uint8_t> offsets) {
  std::vector<HalfScript> nodes(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    nodes[v].id = v;
    nodes[v].tx_slots = scripts[v];
  }
  return MisalignedEngine<HalfScript>(g, WakeSchedule::synchronous(
                                             g.num_nodes()),
                                      std::move(nodes), std::move(offsets),
                                      1);
}

TEST(Misaligned, AlignedPairDelivers) {
  const graph::Graph g = graph::path_graph(2);
  auto eng = make(g, {{0}, {}}, {0, 0});
  for (int i = 0; i < 6; ++i) eng.step();
  ASSERT_EQ(eng.node(1).received.size(), 1u);
  EXPECT_EQ(eng.node(1).received[0].second.sender, 0u);
}

TEST(Misaligned, CrossPhasePairStillDelivers) {
  // Sender at offset 0, receiver at offset 1: the frame spans two of the
  // receiver's local slots but the medium is clear, so it decodes.
  const graph::Graph g = graph::path_graph(2);
  auto eng = make(g, {{1}, {}}, {0, 1});
  for (int i = 0; i < 10; ++i) eng.step();
  ASSERT_EQ(eng.node(1).received.size(), 1u);
}

TEST(Misaligned, PartialOverlapCorrupts) {
  // Path 0-1-2, receiver 1 at offset 0.  Node 0 (offset 0) transmits its
  // slot 1 (halves 2,3); node 2 (offset 1) transmits its slot 1 (halves
  // 3,4).  They overlap in half 3 → both frames are corrupted at node 1.
  const graph::Graph g = graph::path_graph(3);
  auto eng = make(g, {{1}, {}, {1}}, {0, 0, 1});
  for (int i = 0; i < 10; ++i) eng.step();
  EXPECT_TRUE(eng.node(1).received.empty());
  EXPECT_GE(eng.stats().collisions, 1u);
}

TEST(Misaligned, NonOverlappingCrossPhaseFramesBothDeliver) {
  // Node 0 (offset 0) transmits slot 0 (halves 0,1); node 2 (offset 1)
  // transmits slot 1 (halves 3,4). No overlap at receiver 1: two clean
  // receptions.
  const graph::Graph g = graph::path_graph(3);
  auto eng = make(g, {{0}, {}, {1}}, {0, 0, 1});
  for (int i = 0; i < 10; ++i) eng.step();
  EXPECT_EQ(eng.node(1).received.size(), 2u);
}

TEST(Misaligned, ReceiverBusyDuringEitherHalfMissesFrame) {
  // Receiver 1 (offset 1) transmits its slot 1 (halves 3,4); node 0
  // (offset 0) transmits its slot 1 (halves 2,3). Overlap at half 3 →
  // node 1 cannot decode node 0's frame.
  const graph::Graph g = graph::path_graph(2);
  auto eng = make(g, {{1}, {1}}, {0, 1});
  for (int i = 0; i < 10; ++i) eng.step();
  EXPECT_TRUE(eng.node(1).received.empty());
}

std::vector<core::ColoringNode> coloring_nodes(const core::Params& p,
                                               std::size_t n) {
  std::vector<core::ColoringNode> nodes;
  nodes.reserve(n);
  for (graph::NodeId v = 0; v < n; ++v) nodes.emplace_back(&p, v);
  return nodes;
}

TEST(Misaligned, MatchesAlignedEngineWhenAllOffsetsZero) {
  // With every offset 0 the half-slot medium is slot-aligned: each node's
  // frame occupies exactly its own local slot, and every listener hears
  // the same transmitters radio::Engine would resolve.  So the two
  // engines must agree node for node on the same graph, schedule and
  // seed.  RunStats are deliberately not compared: the half-slot medium
  // counts one collision per corrupted (frame, receiver) pair, and it
  // stops one slot earlier (the last slot's deliveries never resolve).
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull, 6ull, 7ull,
                                   8ull, 9ull, 10ull, 11ull, 12ull}) {
    Rng rng(mix_seed(seed, 0xA11));
    const auto net = graph::random_udg(120, 8.0, 1.4, rng);
    const std::size_t n = net.graph.num_nodes();
    const auto delta = std::max(2u, net.graph.max_closed_degree());
    const core::Params p = core::Params::practical(n, delta, 5, 12);
    for (const bool sync : {true, false}) {
      const std::string tag =
          "seed " + std::to_string(seed) + (sync ? " sync" : " uniform");
      Rng wrng(mix_seed(seed, 0xB22));
      const WakeSchedule schedule = sync ? WakeSchedule::synchronous(n)
                                         : WakeSchedule::uniform(n, 600, wrng);
      const Slot budget = 40 * p.threshold();
      Engine<core::ColoringNode> aligned(net.graph, schedule,
                                         coloring_nodes(p, n), seed);
      MisalignedEngine<core::ColoringNode> half(
          net.graph, schedule, coloring_nodes(p, n),
          std::vector<std::uint8_t>(n, 0), seed);
      ASSERT_TRUE(aligned.run(budget).all_decided) << tag;
      ASSERT_TRUE(half.run(budget).all_decided) << tag;
      std::uint64_t aligned_resets = 0;
      std::uint64_t half_resets = 0;
      std::vector<graph::Color> colors(n);
      for (graph::NodeId v = 0; v < n; ++v) {
        const core::ColoringNode& a = aligned.node(v);
        const core::ColoringNode& b = half.node(v);
        colors[v] = b.color();
        EXPECT_EQ(a.color(), b.color()) << tag << " node " << v;
        EXPECT_EQ(aligned.decision_slot(v), half.decision_slot(v))
            << tag << " node " << v;
        EXPECT_EQ(a.leader(), b.leader()) << tag << " node " << v;
        EXPECT_EQ(a.intra_cluster_color(), b.intra_cluster_color())
            << tag << " node " << v;
        aligned_resets += a.stats().resets;
        half_resets += b.stats().resets;
      }
      EXPECT_EQ(aligned_resets, half_resets) << tag;
      EXPECT_TRUE(graph::validate(net.graph, colors).valid()) << tag;
    }
  }
}

/// 64-bit FNV-1a over a misaligned run's results: RunStats, then each
/// node's decision slot, color, leader, intra-cluster color and resets.
std::uint64_t result_digest(const MisalignedEngine<core::ColoringNode>& eng,
                            const RunStats& stats, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  };
  mix(static_cast<std::uint64_t>(stats.slots_run));
  mix(stats.transmissions);
  mix(stats.deliveries);
  mix(stats.collisions);
  mix(stats.dropped);
  mix(stats.all_decided ? 1 : 0);
  for (graph::NodeId v = 0; v < n; ++v) {
    const core::ColoringNode& node = eng.node(v);
    mix(static_cast<std::uint64_t>(eng.decision_slot(v)));
    mix(static_cast<std::uint64_t>(node.color()));
    mix(node.leader());
    mix(static_cast<std::uint64_t>(node.intra_cluster_color()));
    mix(node.stats().resets);
  }
  return h;
}

// Random-offset runs pinned to digests recorded before the misaligned
// engine moved onto the shared engine core: E12's two graph shapes
// (n = 128 UDGs at side 10 and 8, synchronous wake, E12's trial-0 seeds)
// and a gnp graph with uniform wake.  The half-slot medium draws no
// randomness and hands each node at most one frame per half-slot, so no
// reordering inside a half-slot may change these results.
TEST(Misaligned, RandomOffsetResultsMatchRecordedDigests) {
  struct DigestCase {
    std::string shape;
    std::uint64_t digest;
  };
  for (const DigestCase& c : {DigestCase{"udg10", 7959147776278079361ull},
                              DigestCase{"udg8", 16506180016047702332ull},
                              DigestCase{"gnp", 14107666313193095349ull}}) {
    graph::Graph g;
    WakeSchedule schedule;
    if (c.shape == "gnp") {
      Rng rng(0x6A7);
      g = graph::gnp(90, 0.07, rng);
      schedule = WakeSchedule::uniform(g.num_nodes(), 700, rng);
    } else {
      const double side = c.shape == "udg10" ? 10.0 : 8.0;
      Rng rng(mix_seed(0xE12, static_cast<std::uint64_t>(side * 10)));
      g = graph::random_udg(128, side, 1.5, rng).graph;
      schedule = WakeSchedule::synchronous(g.num_nodes());
    }
    const std::size_t n = g.num_nodes();
    const auto delta = std::max(2u, g.max_closed_degree());
    const core::Params p = core::Params::practical(n, delta, 5, 12);
    Rng orng(mix_seed(0xE12B, 0));
    MisalignedEngine<core::ColoringNode> eng(
        g, schedule, coloring_nodes(p, n),
        MisalignedEngine<core::ColoringNode>::random_offsets(n, orng),
        mix_seed(0xE12A, 0));
    const RunStats stats = eng.run(80 * p.threshold());
    EXPECT_TRUE(stats.all_decided) << c.shape;
    EXPECT_EQ(result_digest(eng, stats, n), c.digest) << c.shape;
  }
}

class MisalignedProtocol : public ::testing::TestWithParam<int> {};

TEST_P(MisalignedProtocol, RandomOffsetsStillColorCorrectly) {
  // The paper's claim: the analysis carries over to the non-aligned case.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 97 + 3);
  const auto net = graph::random_udg(70, 6.0, 1.4, rng);
  const auto delta = std::max(2u, net.graph.max_closed_degree());
  const core::Params p =
      core::Params::practical(net.graph.num_nodes(), delta, 5, 12);
  std::vector<core::ColoringNode> nodes;
  for (graph::NodeId v = 0; v < net.graph.num_nodes(); ++v) {
    nodes.emplace_back(&p, v);
  }
  Rng orng(static_cast<std::uint64_t>(GetParam()));
  auto offsets = MisalignedEngine<core::ColoringNode>::random_offsets(
      net.graph.num_nodes(), orng);
  MisalignedEngine<core::ColoringNode> eng(
      net.graph, WakeSchedule::synchronous(net.graph.num_nodes()),
      std::move(nodes), std::move(offsets),
      static_cast<std::uint64_t>(GetParam()));
  const RunStats stats = eng.run(60 * p.threshold());
  ASSERT_TRUE(stats.all_decided);
  std::vector<graph::Color> colors(net.graph.num_nodes());
  for (graph::NodeId v = 0; v < net.graph.num_nodes(); ++v) {
    colors[v] = eng.node(v).color();
  }
  EXPECT_TRUE(graph::validate(net.graph, colors).valid());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MisalignedProtocol, ::testing::Range(0, 5));

}  // namespace
}  // namespace urn::radio

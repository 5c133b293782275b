// Unit tests for the ColoringNode state machine (Algorithms 1–3), driving
// callbacks directly, plus exact-timing checks on tiny graphs.

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "core/params.hpp"
#include "core/protocol.hpp"
#include "core/runner.hpp"
#include "graph/generators.hpp"
#include "obs/postmortem.hpp"
#include "radio/engine.hpp"
#include "support/rng.hpp"

namespace urn::core {
namespace {

Params tiny_params() { return Params::practical(16, 2, 2, 3); }

radio::SlotContext ctx_at(graph::NodeId id, radio::Slot now, Rng& rng) {
  radio::SlotContext ctx;
  ctx.id = id;
  ctx.now = now;
  ctx.rng = &rng;
  return ctx;
}

// --------------------------------------------------------- state machine --

TEST(Protocol, WakesIntoVerifyZero) {
  const Params p = tiny_params();
  Rng rng(1);
  ColoringHot hot(1);
  ColoringNode node(&p, 0);
  node.attach_hot(&hot);
  auto ctx = ctx_at(0, 0, rng);
  node.on_wake(ctx);
  EXPECT_EQ(node.phase(), Phase::kVerify);
  EXPECT_EQ(node.verifying_color(), 0);
  EXPECT_FALSE(node.decided());
  EXPECT_EQ(node.color(), graph::kUncolored);
}

TEST(Protocol, PassivePhaseIsSilent) {
  const Params p = tiny_params();
  Rng rng(2);
  ColoringHot hot(1);
  ColoringNode node(&p, 0);
  node.attach_hot(&hot);
  auto ctx = ctx_at(0, 0, rng);
  node.on_wake(ctx);
  for (radio::Slot t = 0; t < p.passive_slots(); ++t) {
    auto c = ctx_at(0, t, rng);
    EXPECT_EQ(node.on_slot(c), std::nullopt) << "transmitted in slot " << t;
  }
}

TEST(Protocol, IsolatedNodeDecidesAtExactThreshold) {
  const Params p = tiny_params();
  Rng rng(3);
  ColoringHot hot(1);
  ColoringNode node(&p, 0);
  node.attach_hot(&hot);
  auto ctx = ctx_at(0, 0, rng);
  node.on_wake(ctx);
  // Passive phase, then counter climbs 1, 2, …, threshold.
  const radio::Slot decide_slot = p.passive_slots() + p.threshold() - 1;
  for (radio::Slot t = 0; t <= decide_slot; ++t) {
    auto c = ctx_at(0, t, rng);
    (void)node.on_slot(c);
    if (t < decide_slot) {
      EXPECT_FALSE(node.decided()) << "decided early at slot " << t;
    }
  }
  EXPECT_TRUE(node.decided());
  EXPECT_TRUE(node.is_leader());
  EXPECT_EQ(node.color(), 0);
}

TEST(Protocol, HearingLeaderInA0MovesToRequest) {
  const Params p = tiny_params();
  Rng rng(4);
  ColoringHot hot(1);
  ColoringNode node(&p, 0);
  node.attach_hot(&hot);
  auto ctx = ctx_at(0, 0, rng);
  node.on_wake(ctx);
  node.on_receive(ctx, radio::make_decided(7, 0));
  EXPECT_EQ(node.phase(), Phase::kRequest);
  EXPECT_EQ(node.leader(), 7u);
}

TEST(Protocol, AssignMessageAlsoIdentifiesLeader) {
  // An overheard assignment (addressed to someone else) still proves the
  // sender is in C₀ (Fig. 2: any M_C^0 message).
  const Params p = tiny_params();
  Rng rng(5);
  ColoringHot hot(1);
  ColoringNode node(&p, 0);
  node.attach_hot(&hot);
  auto ctx = ctx_at(0, 0, rng);
  node.on_wake(ctx);
  node.on_receive(ctx, radio::make_assign(9, /*w=*/3, /*tc=*/2));
  EXPECT_EQ(node.phase(), Phase::kRequest);
  EXPECT_EQ(node.leader(), 9u);
}

TEST(Protocol, RequestOnlyAcceptsOwnAssignment) {
  const Params p = tiny_params();
  Rng rng(6);
  ColoringHot hot(1);
  ColoringNode node(&p, 0);
  node.attach_hot(&hot);
  auto ctx = ctx_at(0, 0, rng);
  node.on_wake(ctx);
  node.on_receive(ctx, radio::make_decided(7, 0));  // leader 7
  ASSERT_EQ(node.phase(), Phase::kRequest);

  // Assignment to another node: ignored.
  node.on_receive(ctx, radio::make_assign(7, /*w=*/5, /*tc=*/1));
  EXPECT_EQ(node.phase(), Phase::kRequest);
  // Assignment from a different leader: ignored.
  node.on_receive(ctx, radio::make_assign(8, /*w=*/0, /*tc=*/1));
  EXPECT_EQ(node.phase(), Phase::kRequest);
  // The real one: move to A_{tc(κ₂+1)}.
  node.on_receive(ctx, radio::make_assign(7, /*w=*/0, /*tc=*/2));
  EXPECT_EQ(node.phase(), Phase::kVerify);
  EXPECT_EQ(node.intra_cluster_color(), 2);
  EXPECT_EQ(node.verifying_color(), p.first_verify_color(2));
}

TEST(Protocol, CoveredVerifierAdvancesToNextColor) {
  const Params p = tiny_params();
  Rng rng(7);
  ColoringHot hot(1);
  ColoringNode node(&p, 0);
  node.attach_hot(&hot);
  auto ctx = ctx_at(0, 0, rng);
  node.on_wake(ctx);
  node.on_receive(ctx, radio::make_decided(7, 0));
  node.on_receive(ctx, radio::make_assign(7, 0, 1));
  const std::int32_t first = p.first_verify_color(1);
  ASSERT_EQ(node.verifying_color(), first);
  // A neighbor decided exactly this color: advance to A_{i+1}.
  node.on_receive(ctx, radio::make_decided(3, first));
  EXPECT_EQ(node.verifying_color(), first + 1);
  EXPECT_EQ(node.phase(), Phase::kVerify);
  // A decided message for a *different* color is ignored.
  node.on_receive(ctx, radio::make_decided(4, first + 5));
  EXPECT_EQ(node.verifying_color(), first + 1);
}

TEST(Protocol, CompetitorWithinCriticalRangeCausesReset) {
  const Params p = tiny_params();
  Rng rng(8);
  ColoringHot hot(1);
  ColoringNode node(&p, 0);
  node.attach_hot(&hot);
  auto wake = ctx_at(0, 0, rng);
  node.on_wake(wake);
  // Finish the passive phase and climb a little.
  radio::Slot t = 0;
  for (; t < p.passive_slots() + 5; ++t) {
    auto c = ctx_at(0, t, rng);
    (void)node.on_slot(c);
  }
  const std::int64_t before = node.counter();
  ASSERT_GT(before, 0);
  auto c = ctx_at(0, t, rng);
  node.on_receive(c, radio::make_compete(2, 0, before));  // same counter
  EXPECT_LT(node.counter(), before);
  EXPECT_LE(node.counter(), 0);
  EXPECT_EQ(node.stats().resets, 1u);
  EXPECT_EQ(node.competitors(), 1u);
}

TEST(Protocol, CompetitorOutsideCriticalRangeIsOnlyStored) {
  const Params p = tiny_params();
  Rng rng(9);
  ColoringHot hot(1);
  ColoringNode node(&p, 0);
  node.attach_hot(&hot);
  auto wake = ctx_at(0, 0, rng);
  node.on_wake(wake);
  radio::Slot t = 0;
  for (; t < p.passive_slots() + 5; ++t) {
    auto c = ctx_at(0, t, rng);
    (void)node.on_slot(c);
  }
  const std::int64_t before = node.counter();
  const std::int64_t far = before + p.critical_range(0) + 100;
  auto c = ctx_at(0, t, rng);
  node.on_receive(c, radio::make_compete(2, 0, far));
  EXPECT_EQ(node.counter(), before);  // no reset
  EXPECT_EQ(node.stats().resets, 0u);
  EXPECT_EQ(node.competitors(), 1u);  // but stored
}

TEST(Protocol, CompetitorOfOtherColorIgnored) {
  const Params p = tiny_params();
  Rng rng(10);
  ColoringHot hot(1);
  ColoringNode node(&p, 0);
  node.attach_hot(&hot);
  auto wake = ctx_at(0, 0, rng);
  node.on_wake(wake);
  radio::Slot t = 0;
  for (; t < p.passive_slots() + 3; ++t) {
    auto c = ctx_at(0, t, rng);
    (void)node.on_slot(c);
  }
  auto c = ctx_at(0, t, rng);
  node.on_receive(c, radio::make_compete(2, /*i=*/5, node.counter()));
  EXPECT_EQ(node.competitors(), 0u);
  EXPECT_EQ(node.stats().resets, 0u);
}

TEST(Protocol, NaivePolicyResetsToZeroOnHigherCounter) {
  Params p = tiny_params();
  p.reset_policy = ResetPolicy::kNaive;
  Rng rng(11);
  ColoringHot hot(1);
  ColoringNode node(&p, 0);
  node.attach_hot(&hot);
  auto wake = ctx_at(0, 0, rng);
  node.on_wake(wake);
  radio::Slot t = 0;
  for (; t < p.passive_slots() + 5; ++t) {
    auto c = ctx_at(0, t, rng);
    (void)node.on_slot(c);
  }
  const std::int64_t before = node.counter();
  auto c = ctx_at(0, t, rng);
  // Lower counter: ignored under the naive policy.
  node.on_receive(c, radio::make_compete(2, 0, before - 1));
  EXPECT_EQ(node.counter(), before);
  // Higher counter: reset to zero.
  node.on_receive(c, radio::make_compete(2, 0, before + 1));
  EXPECT_EQ(node.counter(), 0);
  EXPECT_EQ(node.stats().resets, 1u);
}

TEST(Protocol, NonePolicyNeverResets) {
  Params p = tiny_params();
  p.reset_policy = ResetPolicy::kNone;
  Rng rng(12);
  ColoringHot hot(1);
  ColoringNode node(&p, 0);
  node.attach_hot(&hot);
  auto wake = ctx_at(0, 0, rng);
  node.on_wake(wake);
  radio::Slot t = 0;
  for (; t < p.passive_slots() + 5; ++t) {
    auto c = ctx_at(0, t, rng);
    (void)node.on_slot(c);
  }
  const std::int64_t before = node.counter();
  auto c = ctx_at(0, t, rng);
  node.on_receive(c, radio::make_compete(2, 0, before));
  EXPECT_EQ(node.counter(), before);
  EXPECT_EQ(node.stats().resets, 0u);
}

// -------------------------------------------------------- receive screen --
// The engine calls `on_receive` only where `ColoringHot::reacts` holds, so
// every reception it screens out must leave the node exactly as it was.

/// The states `reacts` distinguishes.
enum class ScreenState {
  kA0Passive,
  kA0Counting,
  kAi,  ///< A_i with i > 0
  kRequest,
  kIdleLeader,
  kServingLeader,
  kCi,  ///< C_i with i > 0
};

constexpr graph::NodeId kScreenLeader = 7;     ///< the node's leader
constexpr graph::NodeId kScreenRequester = 5;  ///< a serving leader's

/// Wake node 0 and drive it into `state` with hand-fed traffic.
void drive_into(ScreenState state, const ColoringHot& hot, ColoringNode& node,
                Rng& rng) {
  radio::Slot t = 0;
  auto ctx = ctx_at(0, t, rng);
  node.on_wake(ctx);
  const auto slot_until = [&](const auto& done) {
    while (!done()) {
      auto c = ctx_at(0, t++, rng);
      (void)node.on_slot(c);
    }
  };
  const auto decided = [&] { return node.decided(); };
  switch (state) {
    case ScreenState::kA0Passive:
      return;
    case ScreenState::kA0Counting:
      slot_until([&] { return hot.klass[0] == ColoringHot::kCount; });
      return;
    case ScreenState::kRequest:
      node.on_receive(ctx, radio::make_decided(kScreenLeader, 0));
      return;
    case ScreenState::kAi:
    case ScreenState::kCi:
      node.on_receive(ctx, radio::make_decided(kScreenLeader, 0));
      node.on_receive(ctx, radio::make_assign(kScreenLeader, 0, /*tc=*/1));
      if (state == ScreenState::kCi) slot_until(decided);
      return;
    case ScreenState::kIdleLeader:
      slot_until(decided);
      return;
    case ScreenState::kServingLeader: {
      slot_until(decided);
      node.on_receive(ctx, radio::make_request(kScreenRequester, 0));
      auto c = ctx_at(0, t, rng);
      (void)node.on_slot(c);  // starts serving the request
      return;
    }
  }
}

std::string state_bytes(const ColoringNode& node) {
  obs::postmortem::Writer w;
  node.save_state(w);
  return w.data();
}

TEST(Protocol, ReceiveScreenPassesEveryReceptionThatActs) {
  const Params p = tiny_params();
  struct Row {
    ScreenState state;
    int reacting;  ///< of the 32 shapes, those `reacts` passes
    int acting;    ///< those on which `on_receive` changes the node
  };
  // A_i: M_A^i and M_C^i of its own color, plus any assignment at i = 0;
  // R: assignments addressed to it, acted on only from its leader;
  // leaders: requests addressed to them; C_i, i > 0: nothing.
  const Row rows[] = {
      {ScreenState::kA0Passive, 16, 16}, {ScreenState::kA0Counting, 16, 16},
      {ScreenState::kAi, 8, 8},          {ScreenState::kRequest, 4, 2},
      {ScreenState::kIdleLeader, 4, 4},  {ScreenState::kServingLeader, 4, 4},
      {ScreenState::kCi, 0, 0},
  };
  const radio::MsgType types[] = {
      radio::MsgType::kCompete, radio::MsgType::kDecided,
      radio::MsgType::kAssign, radio::MsgType::kRequest};
  for (const Row& row : rows) {
    int reacting = 0;
    int acting = 0;
    for (const radio::MsgType type : types) {
      for (const bool own_color : {true, false}) {
        for (const graph::NodeId target : {graph::NodeId{0}, graph::NodeId{3}}) {
          for (const graph::NodeId sender : {kScreenLeader, graph::NodeId{9}}) {
            ColoringHot hot(1);
            ColoringNode node(&p, 0);
            node.attach_hot(&hot);
            Rng rng(42);
            drive_into(row.state, hot, node, rng);
            ASSERT_NE(node.phase() == Phase::kDecided,
                      row.state < ScreenState::kIdleLeader);

            radio::Message msg;
            msg.type = type;
            msg.sender = sender;
            msg.color_index = hot.color[0] + (own_color ? 0 : 1);
            msg.counter = node.counter();  // within any critical range
            msg.target = target;
            msg.tc = 1;

            auto ctx = ctx_at(0, 10000, rng);
            std::uint64_t events = 0;
            ctx.events_sink = &events;
            ctx.events_fn = [](void* sink, const obs::Event&) {
              ++*static_cast<std::uint64_t*>(sink);
            };
            const bool reacts = hot.reacts(0, msg);
            const std::string before = state_bytes(node);
            node.on_receive(ctx, msg);
            const bool acted = state_bytes(node) != before || events > 0;
            EXPECT_TRUE(reacts || !acted)
                << "state " << static_cast<int>(row.state) << ", type "
                << static_cast<int>(type) << ", own color " << own_color
                << ", target " << target << ", sender " << sender;
            reacting += reacts ? 1 : 0;
            acting += acted ? 1 : 0;
          }
        }
      }
    }
    EXPECT_EQ(reacting, row.reacting) << static_cast<int>(row.state);
    EXPECT_EQ(acting, row.acting) << static_cast<int>(row.state);
  }
}

// ------------------------------------------------------------ tiny runs ---

TEST(Protocol, TwoNodeGraphProducesLeaderAndClusterColor) {
  const graph::Graph g = graph::path_graph(2);
  const Params p = Params::practical(16, 2, 2, 3);
  const auto run = run_coloring(g, p, radio::WakeSchedule::synchronous(2), 5);
  ASSERT_TRUE(run.all_decided);
  ASSERT_TRUE(run.check.valid());
  EXPECT_EQ(run.num_leaders, 1u);
  // One node holds color 0; the other verified from tc=1 upward:
  // its color lies in [κ₂+1, 2κ₂+1] (Corollary 1 range for tc = 1).
  const graph::Color lo = p.first_verify_color(1);
  const graph::Color hi = lo + static_cast<graph::Color>(p.kappa2);
  const bool zero_first = run.colors[0] == 0;
  const graph::Color other = zero_first ? run.colors[1] : run.colors[0];
  EXPECT_EQ(zero_first ? run.colors[0] : run.colors[1], 0);
  EXPECT_GE(other, lo);
  EXPECT_LE(other, hi);
}

TEST(Protocol, IsolatedNodesAllBecomeLeaders) {
  const graph::Graph g = graph::empty_graph(5);
  const Params p = Params::practical(16, 2, 2, 3);
  const auto run = run_coloring(g, p, radio::WakeSchedule::synchronous(5), 6);
  ASSERT_TRUE(run.all_decided);
  EXPECT_EQ(run.num_leaders, 5u);
  for (graph::Color c : run.colors) EXPECT_EQ(c, 0);
}

TEST(Protocol, TriangleUsesThreeDistinctColors) {
  const graph::Graph g = graph::complete_graph(3);
  const Params p = Params::practical(16, 3, 2, 2);
  const auto run = run_coloring(g, p, radio::WakeSchedule::synchronous(3), 7);
  ASSERT_TRUE(run.all_decided);
  EXPECT_TRUE(run.check.valid());
  EXPECT_EQ(run.num_leaders, 1u);
  EXPECT_EQ(graph::distinct_colors(run.colors), 3u);
}

TEST(Protocol, ClusterMembersGetUniqueIntraClusterColors) {
  const graph::Graph g = graph::star_graph(6);  // hub + 5 leaves
  const Params p = Params::practical(16, 6, 5, 5);
  const auto run = run_coloring(g, p, radio::WakeSchedule::synchronous(6), 8);
  ASSERT_TRUE(run.all_decided);
  ASSERT_TRUE(run.check.valid());
  // Within each cluster, intra-cluster colors must be unique.
  for (graph::NodeId a = 0; a < 6; ++a) {
    for (graph::NodeId b = a + 1; b < 6; ++b) {
      if (run.leader_of[a] != graph::kInvalidNode &&
          run.leader_of[a] == run.leader_of[b]) {
        EXPECT_NE(run.intra_cluster[a], run.intra_cluster[b]);
      }
    }
  }
}

TEST(Protocol, DecidedNodeKeepsAnnouncing) {
  // After deciding, a node must still transmit M_C^i (Algorithm 3) so that
  // late wakers can defer. Run one node to decision, then count
  // transmissions over a long window.
  const Params p = tiny_params();
  Rng rng(13);
  ColoringHot hot(1);
  ColoringNode node(&p, 0);
  node.attach_hot(&hot);
  auto wake = ctx_at(0, 0, rng);
  node.on_wake(wake);
  radio::Slot t = 0;
  while (!node.decided()) {
    auto c = ctx_at(0, t++, rng);
    (void)node.on_slot(c);
  }
  int transmissions = 0;
  for (int i = 0; i < 2000; ++i) {
    auto c = ctx_at(0, t++, rng);
    if (node.on_slot(c).has_value()) ++transmissions;
  }
  EXPECT_GT(transmissions, 0);
}

}  // namespace
}  // namespace urn::core

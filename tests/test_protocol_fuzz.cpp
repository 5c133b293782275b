// Robustness fuzzing: a ColoringNode must tolerate *any* message sequence
// without crashing or violating its local invariants — in the radio model
// a node can overhear arbitrary traffic from unknown nodes at any time
// (late wakers, distant-cluster leaders, stale competitors).  The same
// traffic checks the hot block's receive screen: a message that
// `ColoringHot::reacts` rejects (the engine then skips `on_receive`)
// must leave the node's state and event stream untouched.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "core/params.hpp"
#include "core/protocol.hpp"
#include "obs/postmortem.hpp"
#include "radio/message.hpp"
#include "support/rng.hpp"

namespace urn::core {
namespace {

radio::Message random_message(Rng& rng, std::uint32_t n_ids,
                              std::int32_t max_color,
                              std::int64_t counter_span) {
  radio::Message m;
  const auto type = rng.below(4);
  m.sender = static_cast<graph::NodeId>(1 + rng.below(n_ids));
  switch (type) {
    case 0:
      m = radio::make_compete(m.sender,
                              static_cast<std::int32_t>(rng.below(
                                  static_cast<std::uint64_t>(max_color))),
                              rng.range(-counter_span, counter_span));
      break;
    case 1:
      m = radio::make_decided(m.sender,
                              static_cast<std::int32_t>(rng.below(
                                  static_cast<std::uint64_t>(max_color))));
      break;
    case 2:
      m = radio::make_assign(m.sender,
                             static_cast<graph::NodeId>(rng.below(n_ids)),
                             static_cast<std::int32_t>(rng.below(64)));
      break;
    default:
      m = radio::make_request(m.sender,
                              static_cast<graph::NodeId>(rng.below(n_ids)));
      break;
  }
  return m;
}

/// The node's whole mutable state, as the checkpoint codec writes it.
std::string state_bytes(const ColoringNode& node) {
  obs::postmortem::Writer w;
  node.save_state(w);
  return w.data();
}

class ProtocolFuzz
    : public ::testing::TestWithParam<std::tuple<int, ResetPolicy>> {};

TEST_P(ProtocolFuzz, SurvivesArbitraryTrafficWithInvariantsIntact) {
  const auto [seed, policy] = GetParam();
  Params params = Params::practical(64, 6, 4, 6);
  params.reset_policy = policy;
  Rng rng(static_cast<std::uint64_t>(seed) * 2654435761u + 17);

  ColoringHot hot(1);
  ColoringNode node(&params, /*id=*/0);
  node.attach_hot(&hot);
  radio::SlotContext ctx;
  ctx.id = 0;
  ctx.rng = &rng;
  ctx.now = 0;
  // Count what the node emits through its event hook.
  std::uint64_t events = 0;
  ctx.events_sink = &events;
  ctx.events_fn = [](void* sink, const obs::Event&) {
    ++*static_cast<std::uint64_t*>(sink);
  };
  node.on_wake(ctx);

  graph::Color decided_color = graph::kUncolored;
  std::int32_t verify_high_water = 0;
  std::uint64_t screened = 0;

  for (radio::Slot t = 0; t < 30000; ++t) {
    ctx.now = t;
    (void)node.on_slot(ctx);

    // Random barrage: up to 2 messages per slot, half the slots.
    if (rng.chance(0.5)) {
      const auto burst = 1 + rng.below(2);
      for (std::uint64_t k = 0; k < burst; ++k) {
        const radio::Message msg = random_message(rng, 40, 80, 3000);
        if (hot.reacts(0, msg)) {
          node.on_receive(ctx, msg);
          continue;
        }
        // The engine skips this call; it must be a no-op.
        ++screened;
        const std::string before = state_bytes(node);
        const std::uint64_t events_before = events;
        node.on_receive(ctx, msg);
        ASSERT_EQ(state_bytes(node), before)
            << "slot " << t << ": screened message of type "
            << static_cast<int>(msg.type) << " changed phase "
            << static_cast<int>(node.phase());
        ASSERT_EQ(events, events_before) << "slot " << t;
      }
    }

    // Invariants after every event batch:
    // (1) counter never exceeds the threshold while still verifying.
    if (node.phase() == Phase::kVerify) {
      EXPECT_LT(node.counter(), params.threshold());
      EXPECT_GE(node.verifying_color(), 0);
      verify_high_water =
          std::max(verify_high_water, node.verifying_color());
    }
    // (2) a decision is irrevocable.
    if (decided_color != graph::kUncolored) {
      ASSERT_TRUE(node.decided());
      ASSERT_EQ(node.color(), decided_color);
    } else if (node.decided()) {
      decided_color = node.color();
      EXPECT_GE(decided_color, 0);
    }
    // (3) in state R, a leader must be known.
    if (node.phase() == Phase::kRequest) {
      EXPECT_NE(node.leader(), graph::kInvalidNode);
    }
  }

  // With kDecided traffic claiming every color, the node keeps advancing
  // but the verify index can only move forward.
  EXPECT_GE(verify_high_water, 0);
  EXPECT_GT(screened, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ProtocolFuzz,
    ::testing::Combine(::testing::Range(0, 10),
                       ::testing::Values(ResetPolicy::kCriticalRange,
                                         ResetPolicy::kNaive,
                                         ResetPolicy::kNone)));

TEST(ProtocolFuzz, AdversarialCoverEveryColorForcesForwardProgressOnly) {
  // Feed M_C^i for the exact color under verification each time the node
  // enters a new A_i: the node must walk the ladder monotonically and
  // never decide or regress.
  const Params params = Params::practical(64, 6, 4, 6);
  Rng rng(99);
  ColoringHot hot(1);
  ColoringNode node(&params, 0);
  node.attach_hot(&hot);
  radio::SlotContext ctx;
  ctx.id = 0;
  ctx.rng = &rng;
  ctx.now = 0;
  node.on_wake(ctx);

  // Move it out of A_0 into a cluster first.
  node.on_receive(ctx, radio::make_decided(7, 0));
  node.on_receive(ctx, radio::make_assign(7, 0, 1));
  std::int32_t previous = node.verifying_color();
  for (int step = 0; step < 50; ++step) {
    node.on_receive(ctx, radio::make_decided(9, node.verifying_color()));
    EXPECT_EQ(node.verifying_color(), previous + 1);
    EXPECT_EQ(node.phase(), Phase::kVerify);
    previous = node.verifying_color();
  }
  EXPECT_FALSE(node.decided());
}

TEST(ProtocolFuzz, CounterSpamCannotForceEarlyDecision) {
  // Feeding only *low* competitor counters must never push a node across
  // the threshold faster than the slot clock allows.
  const Params params = Params::practical(64, 6, 4, 6);
  Rng rng(123);
  ColoringHot hot(1);
  ColoringNode node(&params, 0);
  node.attach_hot(&hot);
  radio::SlotContext ctx;
  ctx.id = 0;
  ctx.rng = &rng;
  ctx.now = 0;
  node.on_wake(ctx);
  const radio::Slot first_possible =
      params.passive_slots() + params.threshold() - 1;
  for (radio::Slot t = 0; t < first_possible; ++t) {
    ctx.now = t;
    (void)node.on_slot(ctx);
    node.on_receive(
        ctx, radio::make_compete(5, 0, -rng.range(0, 100000)));
    ASSERT_FALSE(node.decided()) << "decided at slot " << t;
  }
}

}  // namespace
}  // namespace urn::core

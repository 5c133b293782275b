// Tests for the leader-election / clustering primitive (the protocol's C₀
// layer used standalone): the leader set must be a maximal independent
// set and every node must associate with an adjacent leader.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/protocol.hpp"
#include "core/runner.hpp"
#include "graph/generators.hpp"
#include "graph/independence.hpp"
#include "radio/wakeup.hpp"
#include "support/rng.hpp"

namespace urn::core {
namespace {

class LeaderElection : public ::testing::TestWithParam<int> {};

TEST_P(LeaderElection, LeadersFormMaximalIndependentSet) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 53 + 29);
  const auto net = graph::random_udg(100, 7.0, 1.4, rng);
  const auto delta = std::max(2u, net.graph.max_closed_degree());
  const Params p = Params::practical(net.graph.num_nodes(), delta, 5, 12);
  Rng wrng(static_cast<std::uint64_t>(GetParam()));
  const auto ws = radio::WakeSchedule::uniform(net.graph.num_nodes(),
                                               2 * p.threshold(), wrng);
  const auto result = run_leader_election(
      net.graph, p, ws, static_cast<std::uint64_t>(GetParam()));
  ASSERT_TRUE(result.all_covered);
  EXPECT_TRUE(
      graph::is_maximal_independent_set(net.graph, result.leaders));
}

TEST_P(LeaderElection, EveryNonLeaderHasAdjacentLeader) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 71 + 5);
  const auto net = graph::random_udg(80, 6.0, 1.4, rng);
  const auto delta = std::max(2u, net.graph.max_closed_degree());
  const Params p = Params::practical(net.graph.num_nodes(), delta, 5, 12);
  const auto result = run_leader_election(
      net.graph, p,
      radio::WakeSchedule::synchronous(net.graph.num_nodes()),
      static_cast<std::uint64_t>(GetParam()) + 100);
  ASSERT_TRUE(result.all_covered);
  std::vector<bool> is_leader(net.graph.num_nodes(), false);
  for (graph::NodeId v : result.leaders) is_leader[v] = true;
  for (graph::NodeId v = 0; v < net.graph.num_nodes(); ++v) {
    if (is_leader[v]) continue;
    const graph::NodeId ell = result.leader_of[v];
    ASSERT_NE(ell, graph::kInvalidNode) << "node " << v;
    EXPECT_TRUE(net.graph.has_edge(v, ell)) << "node " << v;
    EXPECT_TRUE(is_leader[ell]) << "node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LeaderElection, ::testing::Range(0, 5));

TEST(LeaderElection, CoverLatencyIsBoundedAndNonNegative) {
  Rng rng(404);
  const auto net = graph::random_udg(60, 5.5, 1.4, rng);
  const auto delta = std::max(2u, net.graph.max_closed_degree());
  const Params p = Params::practical(net.graph.num_nodes(), delta, 5, 12);
  const auto result = run_leader_election(
      net.graph, p,
      radio::WakeSchedule::synchronous(net.graph.num_nodes()), 3);
  ASSERT_TRUE(result.all_covered);
  for (radio::Slot t : result.cover_latency) {
    EXPECT_GE(t, 0);
    // Leader election is the A₀ stage only: it must finish well within
    // a handful of threshold periods.
    EXPECT_LE(t, 10 * p.threshold());
  }
}

TEST(LeaderElection, StopsEarlyComparedToFullColoring) {
  Rng rng(405);
  const auto net = graph::random_udg(80, 6.0, 1.4, rng);
  const auto delta = std::max(2u, net.graph.max_closed_degree());
  const Params p = Params::practical(net.graph.num_nodes(), delta, 5, 12);
  const auto ws = radio::WakeSchedule::synchronous(net.graph.num_nodes());
  const auto election = run_leader_election(net.graph, p, ws, 7);
  const auto full = run_coloring(net.graph, p, ws, 7);
  ASSERT_TRUE(election.all_covered);
  ASSERT_TRUE(full.all_decided);
  EXPECT_LT(election.medium.slots_run, full.medium.slots_run);
}

// ---- differential check of the covered goal ------------------------------

/// The first stage as a hand-stepped reference: step the engine one slot
/// at a time and, after each step, test every awake, uncovered node with
/// the full covered predicate (decided, in R, or verifying a colour > 0)
/// on its node object.
LeaderElectionResult stepped_election(const graph::Graph& g, const Params& p,
                                      const radio::WakeSchedule& ws,
                                      std::uint64_t seed,
                                      radio::MediumOptions medium) {
  std::vector<ColoringNode> nodes;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    nodes.emplace_back(&p, v);
  }
  radio::Engine<ColoringNode> engine(g, ws, std::move(nodes), seed, medium);
  auto covered = [&engine](graph::NodeId v) {
    const ColoringNode& node = engine.node(v);
    return node.decided() || node.phase() == Phase::kRequest ||
           (node.phase() == Phase::kVerify && node.verifying_color() > 0);
  };
  LeaderElectionResult result;
  result.leader_of.assign(g.num_nodes(), graph::kInvalidNode);
  result.cover_latency.assign(g.num_nodes(), -1);
  const radio::Slot max_slots = default_slot_budget(p, ws);
  std::size_t uncovered = g.num_nodes();
  std::size_t inexact = 0;
  while (engine.current_slot() < max_slots && uncovered > 0) {
    engine.step();
    const radio::Slot now = engine.current_slot() - 1;
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      if (result.cover_latency[v] >= 0 || now < ws.wake_slot(v)) continue;
      // The engine's hot-block test (klass >= kRequest) is "left
      // kVerify"; it must agree with the full predicate here.
      if (covered(v) != (engine.node(v).phase() != Phase::kVerify)) {
        ++inexact;
      }
      if (covered(v)) {
        result.cover_latency[v] = now - ws.wake_slot(v);
        --uncovered;
      }
    }
  }
  EXPECT_EQ(inexact, 0u);
  result.all_covered = uncovered == 0;
  result.medium = engine.stats();
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (engine.node(v).is_leader()) result.leaders.push_back(v);
    result.leader_of[v] = engine.node(v).leader();
  }
  return result;
}

void expect_same_election(const LeaderElectionResult& run,
                          const LeaderElectionResult& ref,
                          const std::string& tag) {
  EXPECT_EQ(run.leaders, ref.leaders) << tag;
  EXPECT_EQ(run.leader_of, ref.leader_of) << tag;
  EXPECT_EQ(run.cover_latency, ref.cover_latency) << tag;
  EXPECT_EQ(run.all_covered, ref.all_covered) << tag;
  EXPECT_EQ(run.medium.all_decided, run.all_covered) << tag;
  EXPECT_EQ(run.medium.slots_run, ref.medium.slots_run) << tag;
  EXPECT_EQ(run.medium.transmissions, ref.medium.transmissions) << tag;
  EXPECT_EQ(run.medium.deliveries, ref.medium.deliveries) << tag;
  EXPECT_EQ(run.medium.collisions, ref.medium.collisions) << tag;
  EXPECT_EQ(run.medium.dropped, ref.medium.dropped) << tag;
}

TEST(LeaderElection, CoveredGoalMatchesSteppedReference) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(seed * 61 + 17);
    const auto net = graph::random_udg(100, 7.0, 1.4, rng);
    const auto delta = std::max(2u, net.graph.max_closed_degree());
    const Params p = Params::practical(net.graph.num_nodes(), delta, 5, 12);
    Rng wrng(seed);
    const radio::WakeSchedule schedules[] = {
        radio::WakeSchedule::synchronous(net.graph.num_nodes()),
        radio::WakeSchedule::uniform(net.graph.num_nodes(),
                                     2 * p.threshold(), wrng)};
    for (const radio::WakeSchedule& ws : schedules) {
      for (const double drop : {0.0, 0.3}) {
        radio::MediumOptions medium;
        medium.drop_probability = drop;
        const std::string tag = "seed " + std::to_string(seed) + " wake " +
                                std::to_string(ws.latest()) + " drop " +
                                std::to_string(drop);
        expect_same_election(
            run_leader_election(net.graph, p, ws, seed + 7, {}, 0, medium),
            stepped_election(net.graph, p, ws, seed + 7, medium), tag);
      }
    }
  }
}

TEST(LeaderElection, TracedCoveredGoalMatchesSteppedReference) {
  Rng rng(77);
  const auto net = graph::random_udg(100, 7.0, 1.4, rng);
  const auto delta = std::max(2u, net.graph.max_closed_degree());
  const Params p = Params::practical(net.graph.num_nodes(), delta, 5, 12);
  Rng wrng(78);
  const auto ws = radio::WakeSchedule::uniform(net.graph.num_nodes(),
                                               2 * p.threshold(), wrng);
  obs::MemorySink memory;
  TraceOptions trace;
  trace.monitor = true;
  trace.metrics = true;
  trace.metrics_window = 32;
  trace.memory = &memory;
  const auto traced = run_leader_election(net.graph, p, ws, 79, trace);
  expect_same_election(traced, stepped_election(net.graph, p, ws, 79, {}),
                       "traced");
  ASSERT_TRUE(traced.series.has_value());
  ASSERT_TRUE(traced.monitor.has_value());
  EXPECT_GT(traced.monitor->events_seen, 0u);
  // Only a node decided when covered, a leader, gets a decision event.
  const auto decisions = std::count_if(
      memory.events().begin(), memory.events().end(),
      [](const obs::Event& e) { return e.kind == obs::EventKind::kDecision; });
  EXPECT_EQ(static_cast<std::size_t>(decisions), traced.leaders.size());
}

TEST(LeaderElection, IsolatedNodesAllBecomeLeaders) {
  const Params p = Params::practical(16, 2, 2, 3);
  const auto result = run_leader_election(
      graph::empty_graph(4), p, radio::WakeSchedule::synchronous(4), 1);
  ASSERT_TRUE(result.all_covered);
  EXPECT_EQ(result.leaders.size(), 4u);
}

}  // namespace
}  // namespace urn::core

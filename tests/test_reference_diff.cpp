// Differential tests: the optimized epoch-stamped engine must agree
// bit-for-bit with the naive reference implementation of the same medium
// semantics, for the real protocol and across graph families, schedules
// and seeds.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/params.hpp"
#include "core/protocol.hpp"
#include "graph/generators.hpp"
#include "obs/bintrace.hpp"
#include "obs/event.hpp"
#include "obs/postmortem.hpp"
#include "obs/sink.hpp"
#include "radio/engine.hpp"
#include "radio/misaligned_engine.hpp"
#include "reference_engine.hpp"
#include "support/rng.hpp"

namespace urn {
namespace {

using Case = std::tuple<std::string, std::uint64_t>;

graph::Graph make_graph(const std::string& family, std::uint64_t seed) {
  Rng rng(seed);
  if (family == "udg") return graph::random_udg(70, 6.0, 1.4, rng).graph;
  if (family == "gnp") return graph::gnp(60, 0.08, rng);
  if (family == "star") return graph::star_graph(40);
  if (family == "cycle") return graph::cycle_graph(50);
  URN_CHECK(false);
  return {};
}

class EngineDiff : public ::testing::TestWithParam<Case> {};

TEST_P(EngineDiff, OptimizedEngineMatchesReference) {
  const auto& [family, seed] = GetParam();
  const graph::Graph g = make_graph(family, seed);
  const auto delta = std::max(2u, g.max_closed_degree());
  const core::Params params =
      core::Params::practical(g.num_nodes(), delta, 5, 12);

  Rng wrng(mix_seed(seed, 77));
  const auto schedule =
      radio::WakeSchedule::uniform(g.num_nodes(), 500, wrng);

  std::vector<core::ColoringNode> a_nodes, b_nodes;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    a_nodes.emplace_back(&params, v);
    b_nodes.emplace_back(&params, v);
  }
  radio::Engine<core::ColoringNode> fast(g, schedule, std::move(a_nodes),
                                         seed);
  testing::ReferenceEngine<core::ColoringNode> ref(g, schedule,
                                                   std::move(b_nodes), seed);

  const radio::Slot horizon = 4 * params.threshold() + 2000;
  for (radio::Slot t = 0; t < horizon; ++t) {
    fast.step();
    ref.step();
  }

  EXPECT_EQ(fast.stats().transmissions, ref.transmissions());
  EXPECT_EQ(fast.stats().deliveries, ref.deliveries());
  EXPECT_EQ(fast.stats().collisions, ref.collisions());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(fast.decision_slot(v), ref.decision_slot(v)) << "node " << v;
    EXPECT_EQ(fast.node(v).phase(), ref.node(v).phase()) << "node " << v;
    EXPECT_EQ(fast.node(v).color(), ref.node(v).color()) << "node " << v;
    EXPECT_EQ(fast.node(v).counter(), ref.node(v).counter()) << "node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndSeeds, EngineDiff,
    ::testing::Values(Case{"udg", 1}, Case{"udg", 2}, Case{"gnp", 3},
                      Case{"gnp", 4}, Case{"star", 5}, Case{"cycle", 6}),
    [](const ::testing::TestParamInfo<Case>& param_info) {
      return std::get<0>(param_info.param) + "_s" +
             std::to_string(std::get<1>(param_info.param));
    });

// ---- fuzz grid: drop, deactivate, wake gaps -------------------------------

void expect_stats_equal(const radio::RunStats& fast,
                        const radio::RunStats& ref) {
  EXPECT_EQ(fast.slots_run, ref.slots_run);
  EXPECT_EQ(fast.transmissions, ref.transmissions);
  EXPECT_EQ(fast.deliveries, ref.deliveries);
  EXPECT_EQ(fast.collisions, ref.collisions);
  EXPECT_EQ(fast.dropped, ref.dropped);
  EXPECT_EQ(fast.all_decided, ref.all_decided);
}

template <typename Fast, typename Ref>
void expect_nodes_equal(const graph::Graph& g, const Fast& fast,
                        const Ref& ref) {
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(fast.decision_slot(v), ref.decision_slot(v)) << "node " << v;
    EXPECT_EQ(fast.node(v).phase(), ref.node(v).phase()) << "node " << v;
    EXPECT_EQ(fast.node(v).color(), ref.node(v).color()) << "node " << v;
    EXPECT_EQ(fast.node(v).counter(), ref.node(v).counter()) << "node " << v;
  }
}

using DropCase = std::tuple<std::string, std::uint64_t, double>;

class EngineDiffDrop : public ::testing::TestWithParam<DropCase> {};

// drop_probability > 0 makes the medium RNG draw once per clean
// reception, in the engine's documented listener order — any ordering
// bug in the single-pass medium desynchronizes the stream and cascades
// into every later delivery.
TEST_P(EngineDiffDrop, LossyMediumMatchesReferenceDrawForDraw) {
  const auto& [family, seed, drop] = GetParam();
  const graph::Graph g = make_graph(family, seed);
  const auto delta = std::max(2u, g.max_closed_degree());
  const core::Params params =
      core::Params::practical(g.num_nodes(), delta, 5, 12);
  const radio::MediumOptions medium{drop};

  Rng wrng(mix_seed(seed, 78));
  const auto schedule =
      radio::WakeSchedule::uniform(g.num_nodes(), 400, wrng);

  std::vector<core::ColoringNode> a_nodes, b_nodes;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    a_nodes.emplace_back(&params, v);
    b_nodes.emplace_back(&params, v);
  }
  radio::Engine<core::ColoringNode> fast(g, schedule, std::move(a_nodes),
                                         seed, medium);
  testing::ReferenceEngine<core::ColoringNode> ref(
      g, schedule, std::move(b_nodes), seed, medium);

  const radio::Slot horizon = 3 * params.threshold() + 1500;
  for (radio::Slot t = 0; t < horizon; ++t) {
    fast.step();
    ref.step();
    if ((t & 511) == 0) EXPECT_EQ(fast.all_decided(), ref.all_decided());
  }
  expect_stats_equal(fast.stats(), ref.stats());
  EXPECT_GT(fast.stats().dropped, 0u);  // the lossy path actually ran
  expect_nodes_equal(g, fast, ref);
}

INSTANTIATE_TEST_SUITE_P(
    DropGrid, EngineDiffDrop,
    ::testing::Values(DropCase{"udg", 21, 0.15}, DropCase{"udg", 22, 0.35},
                      DropCase{"gnp", 23, 0.15}, DropCase{"star", 24, 0.25},
                      DropCase{"cycle", 25, 0.35}),
    [](const ::testing::TestParamInfo<DropCase>& param_info) {
      return std::get<0>(param_info.param) + "_s" +
             std::to_string(std::get<1>(param_info.param)) + "_d" +
             std::to_string(
                 static_cast<int>(std::get<2>(param_info.param) * 100));
    });

// Mid-run crash-stop injection: the same deactivation script (including
// double-deactivations, which must be idempotent) runs against both
// engines under a lossy medium, exercising the compaction of dead nodes
// out of the optimized engine's live lists.
TEST(EngineDiffDeactivate, MidRunCrashesMatchReference) {
  for (const std::uint64_t seed : {31ull, 32ull, 33ull}) {
    const graph::Graph g = make_graph("udg", seed);
    const auto delta = std::max(2u, g.max_closed_degree());
    const core::Params params =
        core::Params::practical(g.num_nodes(), delta, 5, 12);
    const radio::MediumOptions medium{0.2};

    Rng wrng(mix_seed(seed, 79));
    const auto schedule =
        radio::WakeSchedule::uniform(g.num_nodes(), 600, wrng);

    std::vector<core::ColoringNode> a_nodes, b_nodes;
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      a_nodes.emplace_back(&params, v);
      b_nodes.emplace_back(&params, v);
    }
    radio::Engine<core::ColoringNode> fast(g, schedule, std::move(a_nodes),
                                           seed, medium);
    testing::ReferenceEngine<core::ColoringNode> ref(
        g, schedule, std::move(b_nodes), seed, medium);

    const radio::Slot horizon = 3 * params.threshold() + 1500;
    Rng crash_rng(mix_seed(seed, 80));
    for (radio::Slot t = 0; t < horizon; ++t) {
      if (t % 701 == 350) {
        // Crash a pseudo-random node; every third time, re-kill an
        // already-dead one to pin idempotence.
        const auto victim = static_cast<graph::NodeId>(
            crash_rng.below(g.num_nodes()));
        fast.deactivate(victim);
        ref.deactivate(victim);
        if (t % 3 == 0) {
          fast.deactivate(victim);
          ref.deactivate(victim);
        }
        EXPECT_TRUE(fast.is_dead(victim));
      }
      fast.step();
      ref.step();
      if ((t & 255) == 0) EXPECT_EQ(fast.all_decided(), ref.all_decided());
    }
    expect_stats_equal(fast.stats(), ref.stats());
    expect_nodes_equal(g, fast, ref);
  }
}

// Adversarial wake schedules with long empty gaps, driven through run():
// the optimized engine fast-forwards across the gaps while the reference
// grinds slot by slot — RunStats must still agree field for field.
TEST(EngineDiffGaps, FastForwardAcrossWakeGapsIsUnobservable) {
  for (const std::uint64_t seed : {41ull, 42ull}) {
    const graph::Graph g = make_graph("udg", seed);
    const std::size_t n = g.num_nodes();
    const auto delta = std::max(2u, g.max_closed_degree());
    const core::Params params = core::Params::practical(n, delta, 5, 12);
    const radio::MediumOptions medium{0.1};

    // Three wake waves separated by multi-thousand-slot silence, after a
    // long initial gap: nodes 0..n/3 at 4000, ..2n/3 at 9000, rest 15000.
    std::vector<radio::Slot> wakes(n);
    for (std::size_t v = 0; v < n; ++v) {
      wakes[v] = v < n / 3 ? 4000 : (v < 2 * n / 3 ? 9000 : 15000);
    }
    const radio::WakeSchedule schedule{std::vector<radio::Slot>(wakes)};

    std::vector<core::ColoringNode> a_nodes, b_nodes;
    for (graph::NodeId v = 0; v < n; ++v) {
      a_nodes.emplace_back(&params, v);
      b_nodes.emplace_back(&params, v);
    }
    radio::Engine<core::ColoringNode> fast(g, schedule, std::move(a_nodes),
                                           seed, medium);
    testing::ReferenceEngine<core::ColoringNode> ref(
        g, schedule, std::move(b_nodes), seed, medium);

    const radio::Slot budget = 15000 + 4 * params.threshold() + 2000;
    const radio::RunStats fast_stats = fast.run(budget);
    const radio::RunStats ref_stats = ref.run(budget);
    expect_stats_equal(fast_stats, ref_stats);
    expect_nodes_equal(g, fast, ref);
    EXPECT_EQ(fast.all_decided(), ref.all_decided());
  }
}

// run() must also agree when nothing ever wakes late — plain grid, whole
// runs, RunStats field for field (the original grid only compared three
// counters after a fixed horizon of manual steps).
TEST(EngineDiffRun, WholeRunStatsMatchFieldForField) {
  for (const std::uint64_t seed : {51ull, 52ull}) {
    const graph::Graph g = make_graph("gnp", seed);
    const auto delta = std::max(2u, g.max_closed_degree());
    const core::Params params =
        core::Params::practical(g.num_nodes(), delta, 5, 12);

    Rng wrng(mix_seed(seed, 81));
    const auto schedule =
        radio::WakeSchedule::uniform(g.num_nodes(), 300, wrng);

    std::vector<core::ColoringNode> a_nodes, b_nodes;
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      a_nodes.emplace_back(&params, v);
      b_nodes.emplace_back(&params, v);
    }
    radio::Engine<core::ColoringNode> fast(g, schedule, std::move(a_nodes),
                                           seed);
    testing::ReferenceEngine<core::ColoringNode> ref(
        g, schedule, std::move(b_nodes), seed);

    const radio::Slot budget = 6 * params.threshold() + 4000;
    expect_stats_equal(fast.run(budget), ref.run(budget));
    expect_nodes_equal(g, fast, ref);
  }
}

/// 64-bit FNV-1a over the URNB record bytes of an event stream — the
/// exact bytes `--trace-bin` writes after the file header.
std::uint64_t bin_digest(const std::vector<obs::Event>& events) {
  std::string bytes;
  for (const obs::Event& e : events) obs::append_bin(bytes, e);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Traced ≡ untraced after both ran to the same budget: same stats,
/// per-node state and `save_state` blob, one transmit event per
/// transmission, and each node's phase events equal to its transition
/// log.
template <typename Untraced, typename Traced>
void expect_traced_matches_untraced(const graph::Graph& g,
                                    const Untraced& untraced,
                                    const radio::RunStats& untraced_stats,
                                    const Traced& traced,
                                    const radio::RunStats& stats,
                                    const std::vector<obs::Event>& events,
                                    const std::string& tag) {
  expect_stats_equal(untraced_stats, stats);
  expect_nodes_equal(g, untraced, traced);
  obs::postmortem::Writer blob_untraced, blob_traced;
  untraced.save_state(blob_untraced);
  traced.save_state(blob_traced);
  EXPECT_EQ(blob_untraced.data(), blob_traced.data()) << tag;

  std::uint64_t tx_events = 0;
  std::vector<std::vector<core::Transition>> phases(g.num_nodes());
  for (const obs::Event& e : events) {
    if (e.kind == obs::EventKind::kTransmit) ++tx_events;
    if (e.kind == obs::EventKind::kPhase) {
      phases[e.node].push_back(
          {e.slot, static_cast<core::Phase>(e.phase), e.color});
    }
  }
  EXPECT_EQ(tx_events, stats.transmissions) << tag;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto& log = traced.node(v).transitions();
    ASSERT_EQ(phases[v].size(), log.size()) << tag << " node " << v;
    for (std::size_t i = 0; i < log.size(); ++i) {
      EXPECT_EQ(phases[v][i].slot, log[i].slot) << tag << " node " << v;
      EXPECT_EQ(phases[v][i].phase, log[i].phase) << tag << " node " << v;
      EXPECT_EQ(phases[v][i].color_index, log[i].color_index)
          << tag << " node " << v;
    }
  }
}

// A traced engine instantiation (any enabled sink) drives the protocol
// through the same slot step as an untraced one; only the sink differs.
// This pins it end to end across families, wake patterns and lossy
// media: same stats, same per-node state, the same `save_state` byte
// blob (which serializes every hot-block array, competitor list, and
// RNG stream), and an event stream that is complete (one tx event per
// transmission, each node's phase events equal to its transition log)
// and byte-identical to a recorded digest.  The digests were recorded
// when traced engines still ran the per-node `on_slot` loop, so they
// also pin the traced `batch_slots` stream to the scalar one; batch ≡
// scalar for stats and state stays pinned by the `ReferenceEngine`
// diffs above, which call `on_slot` per node.  The sync-wake UDG case
// puts threshold decisions and leader serve events mid-pass.
TEST(EngineDiffBatch, TracedBatchMatchesUntracedBatch) {
  struct TracedCase {
    std::string family;
    std::uint64_t seed;
    double drop;
    bool sync;
    std::size_t events;   ///< recorded event count
    std::uint64_t digest; ///< recorded bin_digest
  };
  for (const TracedCase& c :
       {TracedCase{"udg", 81, 0.0, false, 176909, 1532782506346216256ull},
        TracedCase{"gnp", 82, 0.2, false, 126431, 4791673170477412578ull},
        TracedCase{"star", 83, 0.0, false, 62511, 15882318393917671986ull},
        TracedCase{"cycle", 84, 0.3, false, 23196, 10641509426990438150ull},
        TracedCase{"udg", 85, 0.0, true, 187995, 17649827530177418817ull}}) {
    const std::string tag = c.family + std::to_string(c.seed);
    const graph::Graph g = make_graph(c.family, c.seed);
    const auto delta = std::max(2u, g.max_closed_degree());
    const core::Params params =
        core::Params::practical(g.num_nodes(), delta, 5, 12);
    radio::MediumOptions medium;
    medium.drop_probability = c.drop;

    Rng wrng(mix_seed(c.seed, 91));
    const auto schedule =
        c.sync ? radio::WakeSchedule::synchronous(g.num_nodes())
               : radio::WakeSchedule::uniform(g.num_nodes(), 400, wrng);

    std::vector<core::ColoringNode> a_nodes, b_nodes;
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      a_nodes.emplace_back(&params, v);
      b_nodes.emplace_back(&params, v);
    }
    radio::Engine<core::ColoringNode> untraced(g, schedule,
                                               std::move(a_nodes), c.seed,
                                               medium);
    obs::MemorySink sink;
    radio::Engine<core::ColoringNode, obs::MemorySink> traced(
        g, schedule, std::move(b_nodes), c.seed, medium, &sink);

    const radio::Slot budget = 4 * params.threshold() + 2000;
    const radio::RunStats stats = traced.run(budget);
    const std::vector<obs::Event>& events = sink.events();
    expect_traced_matches_untraced(g, untraced, untraced.run(budget), traced,
                                   stats, events, tag);
    std::uint64_t serves = 0;
    for (const obs::Event& e : events) {
      if (e.kind == obs::EventKind::kServe) ++serves;
    }
    if (c.sync) {
      EXPECT_GT(serves, 0u) << tag;
    }

    EXPECT_EQ(events.size(), c.events) << tag;
    EXPECT_EQ(bin_digest(events), c.digest) << tag;
  }

  // The half-slot medium under random offsets: the same traced ≡
  // untraced contract, plus one decision event per decided node.  No
  // event digest is pinned here — only results are specified for this
  // engine, not the order of events within a half-slot.
  struct MisalignedCase {
    std::string family;
    std::uint64_t seed;
    bool sync;
  };
  for (const MisalignedCase& c :
       {MisalignedCase{"udg", 86, false}, MisalignedCase{"gnp", 87, false},
        MisalignedCase{"udg", 88, true}}) {
    const std::string tag = "misaligned " + c.family + std::to_string(c.seed);
    const graph::Graph g = make_graph(c.family, c.seed);
    const std::size_t n = g.num_nodes();
    const auto delta = std::max(2u, g.max_closed_degree());
    const core::Params params = core::Params::practical(n, delta, 5, 12);
    Rng wrng(mix_seed(c.seed, 91));
    const auto schedule = c.sync ? radio::WakeSchedule::synchronous(n)
                                 : radio::WakeSchedule::uniform(n, 400, wrng);
    Rng orng(mix_seed(c.seed, 92));
    const auto offsets =
        radio::MisalignedEngine<core::ColoringNode>::random_offsets(n, orng);

    std::vector<core::ColoringNode> a_nodes, b_nodes;
    for (graph::NodeId v = 0; v < n; ++v) {
      a_nodes.emplace_back(&params, v);
      b_nodes.emplace_back(&params, v);
    }
    radio::MisalignedEngine<core::ColoringNode> untraced(
        g, schedule, std::move(a_nodes), offsets, c.seed);
    obs::MemorySink sink;
    radio::MisalignedEngine<core::ColoringNode, obs::MemorySink> traced(
        g, schedule, std::move(b_nodes), offsets, c.seed, &sink);

    const radio::Slot budget = 10 * params.threshold();
    const radio::RunStats stats = traced.run(budget);
    EXPECT_TRUE(stats.all_decided) << tag;
    expect_traced_matches_untraced(g, untraced, untraced.run(budget), traced,
                                   stats, sink.events(), tag);
    std::vector<std::size_t> decisions(n, 0);
    for (const obs::Event& e : sink.events()) {
      if (e.kind == obs::EventKind::kDecision) ++decisions[e.node];
    }
    for (graph::NodeId v = 0; v < n; ++v) {
      const bool decided =
          traced.decision_slot(v) !=
          radio::MisalignedEngine<core::ColoringNode>::kUndecided;
      EXPECT_EQ(decisions[v], decided ? 1u : 0u) << tag << " node " << v;
    }
  }
}

// ---- checkpoint → resume fuzz grid (postmortem) ---------------------------
//
// The postmortem contract: serializing an engine mid-run and resuming
// from the checkpoint is unobservable — the resumed run replays the
// exact RNG draw sequence, lands on the same RunStats field for field,
// the same per-node final state, and the same serialized end-state
// bytes as the uninterrupted run.  The grid sweeps both engines across
// the scenarios that stress different checkpointed state: mid-waking
// snapshots (sleepers still pending), lossy media (medium RNG stream
// mid-sequence), post-deactivate snapshots (dead bits and live-list
// compaction), and multi-wave gap schedules (fast-forward cursors).

namespace pm = obs::postmortem;

void expect_resume_equals_straight(const core::RunResult& resumed,
                                   const core::RunResult& straight) {
  expect_stats_equal(resumed.medium, straight.medium);
  EXPECT_EQ(resumed.colors, straight.colors);
  EXPECT_EQ(resumed.wake_slot, straight.wake_slot);
  EXPECT_EQ(resumed.decision_slot, straight.decision_slot);
  EXPECT_EQ(resumed.latency, straight.latency);
  EXPECT_EQ(resumed.leader_of, straight.leader_of);
  EXPECT_EQ(resumed.intra_cluster, straight.intra_cluster);
  EXPECT_EQ(resumed.num_leaders, straight.num_leaders);
  EXPECT_EQ(resumed.total_resets, straight.total_resets);
  EXPECT_EQ(resumed.max_verify_states, straight.max_verify_states);
  EXPECT_EQ(resumed.duplicate_serves, straight.duplicate_serves);
  EXPECT_EQ(resumed.max_color, straight.max_color);
  EXPECT_EQ(resumed.check.valid(), straight.check.valid());
  EXPECT_EQ(resumed.all_decided, straight.all_decided);
}

/// One aligned-engine checkpoint→resume round: engine `a` runs straight
/// through, twin `b` snapshots at `take_at` (after replaying `kills`,
/// which must all land before the snapshot) and continues; the
/// checkpoint is then loaded and resumed.  All three must agree on
/// stats, per-node state, and the final `save_state` byte blob.
void check_aligned_resume(
    const graph::Graph& g, const core::Params& params,
    const radio::WakeSchedule& schedule, std::uint64_t seed,
    radio::MediumOptions medium, radio::Slot take_at, radio::Slot budget,
    const std::string& tag,
    const std::vector<std::pair<radio::Slot, graph::NodeId>>& kills = {}) {
  std::vector<core::ColoringNode> a_nodes, b_nodes;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    a_nodes.emplace_back(&params, v);
    b_nodes.emplace_back(&params, v);
  }
  radio::Engine<core::ColoringNode> a(g, schedule, std::move(a_nodes), seed,
                                      medium);
  radio::Engine<core::ColoringNode> b(g, schedule, std::move(b_nodes), seed,
                                      medium);

  const std::string path = ::testing::TempDir() + "refdiff_" + tag + ".urnc";
  pm::Checkpointer ckpt(
      path, pm::EngineKind::kAligned, 0,
      core::render_scenario(
          core::make_scenario(g, params, schedule, seed, budget, medium)));

  std::size_t next_kill = 0;
  radio::Slot t = 0;
  for (; t < take_at && !a.all_decided(); ++t) {
    a.step();
    b.step();
    while (next_kill < kills.size() && kills[next_kill].first == t) {
      a.deactivate(kills[next_kill].second);
      b.deactivate(kills[next_kill].second);
      ++next_kill;
    }
  }
  ASSERT_EQ(next_kill, kills.size()) << "kill script outlived the snapshot";
  ckpt.take(b, t);
  ASSERT_FALSE(ckpt.failed());

  const radio::RunStats stats_a = a.run(budget);
  const radio::RunStats stats_b = b.run(budget);
  expect_stats_equal(stats_b, stats_a);  // snapshotting perturbed nothing
  expect_nodes_equal(g, b, a);

  pm::Writer blob_a, blob_b;
  a.save_state(blob_a);
  b.save_state(blob_b);
  EXPECT_EQ(blob_a.data(), blob_b.data());

  const core::LoadedCheckpoint lc = core::load_checkpoint(path);
  ASSERT_TRUE(lc.ok) << lc.error;
  ASSERT_EQ(lc.position, t);
  const core::ResumeResult resumed = core::resume_coloring(lc);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  expect_resume_equals_straight(
      resumed.run, core::harvest_coloring(a, g, schedule, stats_a));

  // Final-state byte equality: rebuild from the checkpoint by hand, run
  // to the recorded budget, and the end state must serialize to the
  // straight run's exact bytes.
  std::vector<core::ColoringNode> c_nodes;
  for (graph::NodeId v = 0; v < lc.graph.num_nodes(); ++v) {
    c_nodes.emplace_back(&lc.scenario.params, v);
  }
  radio::WakeSchedule rsched{std::vector<radio::Slot>(lc.scenario.wake_slots)};
  radio::Engine<core::ColoringNode> c(lc.graph, rsched, std::move(c_nodes),
                                      lc.scenario.seed, lc.scenario.medium);
  pm::Reader state(lc.engine_state);
  ASSERT_TRUE(c.load_state(state));
  (void)c.run(lc.scenario.max_slots);
  pm::Writer blob_c;
  c.save_state(blob_c);
  EXPECT_EQ(blob_c.data(), blob_a.data());
}

using ResumeCase =
    std::tuple<std::string, std::uint64_t, double, bool /*gap schedule*/>;

class CheckpointResumeAligned : public ::testing::TestWithParam<ResumeCase> {
};

TEST_P(CheckpointResumeAligned, ResumeIsBitIdenticalToStraightRun) {
  const auto& [family, seed, drop, gaps] = GetParam();
  const graph::Graph g = make_graph(family, seed);
  const std::size_t n = g.num_nodes();
  const auto delta = std::max(2u, g.max_closed_degree());
  const core::Params params = core::Params::practical(n, delta, 5, 12);
  radio::MediumOptions medium;
  medium.drop_probability = drop;

  radio::WakeSchedule schedule = [&] {
    if (gaps) {
      // Three wake waves with multi-thousand-slot silence between them
      // (the fast-forward path); the snapshot below lands inside the
      // silence after wave two, with wave three still asleep.
      std::vector<radio::Slot> wakes(n);
      for (std::size_t v = 0; v < n; ++v) {
        wakes[v] = v < n / 3 ? 4000 : (v < 2 * n / 3 ? 9000 : 15000);
      }
      return radio::WakeSchedule{std::move(wakes)};
    }
    Rng wrng(mix_seed(seed, 77));
    return radio::WakeSchedule::uniform(n, 1000, wrng);
  }();

  // Mid-waking snapshot: halfway into the wake window, so part of the
  // network is still asleep inside the checkpoint.
  const radio::Slot take_at = gaps ? 9500 : 500;
  const radio::Slot budget =
      (gaps ? 15000 : 1000) + 4 * params.threshold() + 2000;
  check_aligned_resume(g, params, schedule, seed, medium, take_at, budget,
                       family + "_s" + std::to_string(seed) +
                           (gaps ? "_gaps" : "") + "_d" +
                           std::to_string(static_cast<int>(drop * 100)));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CheckpointResumeAligned,
    ::testing::Values(ResumeCase{"udg", 61, 0.0, false},
                      ResumeCase{"gnp", 62, 0.25, false},
                      ResumeCase{"star", 63, 0.15, false},
                      ResumeCase{"udg", 64, 0.1, true},
                      ResumeCase{"cycle", 65, 0.35, true},
                      // SoA-era additions: the hot block (klass bytes,
                      // counters, passive countdowns) and the parallel
                      // competitor arrays travel through the v1 blob as
                      // derived per-node fields — more seeds and both
                      // schedule shapes fuzz that round-trip.
                      ResumeCase{"udg", 66, 0.3, false},
                      ResumeCase{"gnp", 67, 0.0, true},
                      ResumeCase{"star", 68, 0.05, true}),
    [](const ::testing::TestParamInfo<ResumeCase>& param_info) {
      return std::get<0>(param_info.param) + "_s" +
             std::to_string(std::get<1>(param_info.param)) +
             (std::get<3>(param_info.param) ? "_gaps" : "") + "_d" +
             std::to_string(
                 static_cast<int>(std::get<2>(param_info.param) * 100));
    });

// Post-deactivate snapshot: crash-stop a few nodes before the
// checkpoint, so the dead bits, compacted live lists, and adjusted
// pending counts all travel through serialization.
TEST(CheckpointResumeAligned, PostDeactivateStateSurvivesRoundTrip) {
  for (const std::uint64_t seed : {71ull, 72ull}) {
    const graph::Graph g = make_graph("udg", seed);
    const std::size_t n = g.num_nodes();
    const auto delta = std::max(2u, g.max_closed_degree());
    const core::Params params = core::Params::practical(n, delta, 5, 12);
    radio::MediumOptions medium;
    medium.drop_probability = 0.2;
    Rng wrng(mix_seed(seed, 77));
    const auto schedule = radio::WakeSchedule::uniform(n, 600, wrng);

    // Same kill cadence as EngineDiffDeactivate, confined to the
    // pre-snapshot window so the resumed run needs no replay script.
    Rng crash_rng(mix_seed(seed, 80));
    std::vector<std::pair<radio::Slot, graph::NodeId>> kills;
    const radio::Slot take_at = 2000;
    for (radio::Slot t = 0; t < take_at; ++t) {
      if (t % 701 == 350) {
        kills.emplace_back(t,
                           static_cast<graph::NodeId>(crash_rng.below(n)));
      }
    }
    const radio::Slot budget = 4 * params.threshold() + 4000;
    check_aligned_resume(g, params, schedule, seed, medium, take_at, budget,
                         "deact_s" + std::to_string(seed), kills);
  }
}

// Misaligned engine: positions are half-slots, and the checkpoint must
// carry the cross-half state (in-flight transmissions, per-parity
// neighbor counts and stamps).  Snapshot at an odd half boundary so a
// transmission spanning the boundary is live inside the checkpoint.
TEST(CheckpointResumeMisaligned, ResumeIsBitIdenticalToStraightRun) {
  for (const std::uint64_t seed : {81ull, 82ull}) {
    const graph::Graph g = make_graph("gnp", seed);
    const std::size_t n = g.num_nodes();
    const auto delta = std::max(2u, g.max_closed_degree());
    const core::Params params = core::Params::practical(n, delta, 5, 12);
    Rng wrng(mix_seed(seed, 77));
    const auto schedule = radio::WakeSchedule::uniform(n, 800, wrng);
    Rng orng(mix_seed(seed, 5));
    const auto offsets =
        radio::MisalignedEngine<core::ColoringNode>::random_offsets(n, orng);

    std::vector<core::ColoringNode> a_nodes, b_nodes;
    for (graph::NodeId v = 0; v < n; ++v) {
      a_nodes.emplace_back(&params, v);
      b_nodes.emplace_back(&params, v);
    }
    radio::MisalignedEngine<core::ColoringNode> a(g, schedule, a_nodes,
                                                  offsets, seed);
    radio::MisalignedEngine<core::ColoringNode> b(g, schedule, b_nodes,
                                                  offsets, seed);

    const radio::Slot budget = 4 * params.threshold() + 2000;
    const std::string path = ::testing::TempDir() + "refdiff_mis_s" +
                             std::to_string(seed) + ".urnc";
    pm::Checkpointer ckpt(
        path, pm::EngineKind::kMisaligned, 0,
        core::render_scenario(core::make_scenario(
            g, params, schedule, seed, budget, {}, 0,
            std::vector<std::uint8_t>(offsets))));

    std::int64_t h = 0;
    const std::int64_t take_at_half = 2 * 400 + 1;  // mid-waking, odd half
    for (; h < take_at_half && !a.all_decided(); ++h) {
      a.step();
      b.step();
    }
    ckpt.take(b, h);
    ASSERT_FALSE(ckpt.failed());

    const radio::RunStats stats_a = a.run(budget);
    const radio::RunStats stats_b = b.run(budget);
    expect_stats_equal(stats_b, stats_a);
    expect_nodes_equal(g, b, a);

    pm::Writer blob_a, blob_b;
    a.save_state(blob_a);
    b.save_state(blob_b);
    EXPECT_EQ(blob_a.data(), blob_b.data());

    const core::LoadedCheckpoint lc = core::load_checkpoint(path);
    ASSERT_TRUE(lc.ok) << lc.error;
    ASSERT_EQ(lc.kind, pm::EngineKind::kMisaligned);
    ASSERT_EQ(lc.position, h);
    const core::ResumeResult resumed = core::resume_coloring(lc);
    ASSERT_TRUE(resumed.ok) << resumed.error;
    expect_resume_equals_straight(
        resumed.run, core::harvest_coloring(a, g, schedule, stats_a));

    std::vector<core::ColoringNode> c_nodes;
    for (graph::NodeId v = 0; v < n; ++v) {
      c_nodes.emplace_back(&lc.scenario.params, v);
    }
    radio::WakeSchedule rsched{
        std::vector<radio::Slot>(lc.scenario.wake_slots)};
    radio::MisalignedEngine<core::ColoringNode> c(
        lc.graph, rsched, std::move(c_nodes), lc.scenario.offsets,
        lc.scenario.seed);
    pm::Reader state(lc.engine_state);
    ASSERT_TRUE(c.load_state(state));
    (void)c.run(lc.scenario.max_slots);
    pm::Writer blob_c;
    c.save_state(blob_c);
    EXPECT_EQ(blob_c.data(), blob_a.data());
  }
}

}  // namespace
}  // namespace urn

// Tests for the observability subsystem: event serialization, sinks,
// per-window metrics, the trace analyzer (Fig. 2 legality), the traced
// runner, and the profiling registry.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "core/protocol.hpp"
#include "core/runner.hpp"
#include "graph/generators.hpp"
#include "obs/bintrace.hpp"
#include "obs/event.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/sink.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "radio/engine.hpp"
#include "support/rng.hpp"

namespace urn::obs {
namespace {

// -------------------------------- events ---------------------------------

TEST(Event, JsonlRoundTripsEveryKind) {
  const Event samples[] = {
      Event::wake(7, 3),
      Event::transmit(15, 4, static_cast<std::uint8_t>(MsgCode::kCompete),
                      /*color=*/2, /*counter=*/314),
      Event::transmit(16, 4, static_cast<std::uint8_t>(MsgCode::kDecided),
                      /*color=*/2, /*counter=*/0),
      Event::delivery(20, 1, 4, static_cast<std::uint8_t>(MsgCode::kAssign),
                      /*color=*/0),
      Event::collision(21, 9),
      Event::drop(22, 5, 4, static_cast<std::uint8_t>(MsgCode::kRequest)),
      Event::phase_change(30, 2,
                          static_cast<std::uint8_t>(PhaseCode::kVerify), 6),
      Event::phase_change(31, 2,
                          static_cast<std::uint8_t>(PhaseCode::kRequest), 0),
      Event::reset(40, 8, 3, 12345),
      Event::decision(55, 2, 6, 48),
      Event::serve(60, 0, 7, 4),
  };
  for (const Event& e : samples) {
    std::string line;
    append_jsonl(line, e);
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.back(), '\n');
    Event back;
    ASSERT_TRUE(parse_jsonl_line(line, back)) << line;
    EXPECT_EQ(back, e) << line;
  }
}

TEST(Event, JsonlRoundTripsExtremeFieldValues) {
  // Every kind at the edges of its field domains: INT64 extremes for
  // slots / values, UINT32_MAX (kNoNode) node / peer ids, INT32 extremes
  // for colors.  Serialization and parsing must be exact — no precision
  // loss through the text form.
  constexpr Slot kSlotMax = std::numeric_limits<Slot>::max();
  constexpr Slot kSlotMin = std::numeric_limits<Slot>::min();
  constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kI64Min = std::numeric_limits<std::int64_t>::min();
  constexpr std::int32_t kI32Max = std::numeric_limits<std::int32_t>::max();
  constexpr std::int32_t kI32Min = std::numeric_limits<std::int32_t>::min();
  const Event samples[] = {
      Event::wake(kSlotMax, kNoNode),
      Event::wake(kSlotMin, 0),
      Event::transmit(kSlotMax, kNoNode,
                      static_cast<std::uint8_t>(MsgCode::kCompete), kI32Max,
                      kI64Max),
      Event::transmit(kSlotMin, kNoNode,
                      static_cast<std::uint8_t>(MsgCode::kCompete), kI32Min,
                      kI64Min),
      Event::delivery(kSlotMax, kNoNode, kNoNode - 1,
                      static_cast<std::uint8_t>(MsgCode::kAssign), kI32Min),
      Event::collision(kSlotMin, kNoNode),
      Event::drop(-1, kNoNode, 0,
                  static_cast<std::uint8_t>(MsgCode::kDecided)),
      Event::phase_change(kSlotMax, kNoNode,
                          static_cast<std::uint8_t>(PhaseCode::kDecided),
                          kI32Max),
      Event::reset(kSlotMin, kNoNode, kI32Min, kI64Min),
      Event::decision(kSlotMax, kNoNode, kI32Max, kI64Max),
      Event::serve(kSlotMin, kNoNode, kNoNode, kI64Min),
  };
  for (const Event& e : samples) {
    std::string line;
    append_jsonl(line, e);
    Event back;
    ASSERT_TRUE(parse_jsonl_line(line, back)) << line;
    EXPECT_EQ(back, e) << line;
  }
}

TEST(Event, ParserToleratesEscapedAndUnknownStringPayloads) {
  // Events carry no free-form strings, but the parser must tolerate
  // foreign keys carrying escaped payloads without corrupting the
  // event fields around them.
  Event out;
  ASSERT_TRUE(parse_jsonl_line(
      R"({"slot":3,"kind":"wake","node":1,"note":"a \"quoted\" \\ payload"})",
      out));
  EXPECT_EQ(out, Event::wake(3, 1));
  ASSERT_TRUE(parse_jsonl_line(
      R"({"slot":4,"kind":"wake","node":2,"note":""})", out));
  EXPECT_EQ(out, Event::wake(4, 2));
}

TEST(Event, ParserRejectsGarbage) {
  Event out;
  EXPECT_FALSE(parse_jsonl_line("", out));
  EXPECT_FALSE(parse_jsonl_line("not json", out));
  EXPECT_FALSE(parse_jsonl_line(R"({"slot":1})", out));  // no kind
  EXPECT_FALSE(parse_jsonl_line(R"({"slot":1,"kind":"warp"})", out));
}

TEST(Event, KindNamesRoundTrip) {
  for (std::size_t k = 0; k < kNumEventKinds; ++k) {
    const auto kind = static_cast<EventKind>(k);
    EventKind back = EventKind::kWake;
    ASSERT_TRUE(kind_from_name(kind_name(kind), back));
    EXPECT_EQ(back, kind);
  }
  EventKind dummy = EventKind::kWake;
  EXPECT_FALSE(kind_from_name("nope", dummy));
}

// -------------------------------- sinks ----------------------------------

TEST(Sinks, MemorySinkStoresInOrder) {
  MemorySink sink;
  sink.record(Event::wake(1, 0));
  sink.record(Event::wake(2, 1));
  sink.flush();
  ASSERT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.events()[0].slot, 1);
  EXPECT_EQ(sink.events()[1].slot, 2);
}

TEST(JsonlExport, WritesParseableFile) {
  const std::string path = ::testing::TempDir() + "obs_jsonl_export.jsonl";
  ASSERT_TRUE(write_jsonl_file(
      path, {Event::wake(0, 0), Event::decision(9, 0, 3, 9)}));
  const ParsedLogFile log = read_jsonl_file(path);
  ASSERT_TRUE(log.ok);
  EXPECT_EQ(log.bad_lines, 0u);
  ASSERT_EQ(log.events.size(), 2u);
  EXPECT_EQ(log.events[0], Event::wake(0, 0));
  EXPECT_EQ(log.events[1], Event::decision(9, 0, 3, 9));
  std::remove(path.c_str());
}

TEST(JsonlExport, ReportsUnopenablePath) {
  EXPECT_FALSE(write_jsonl_file("/nonexistent-dir-xyz/trace.jsonl",
                                {Event::wake(0, 0)}));
}

TEST(JsonlExport, ChunkedWriteEqualsOneAppendPerEvent) {
  // More than one 64 KiB chunk: the file is exactly the append_jsonl
  // concatenation, the bytes a per-event JSONL writer produced.
  std::vector<Event> events;
  std::string expected;
  for (Slot s = 0; s < 5000; ++s) {
    events.push_back(Event::transmit(
        s, static_cast<NodeId>(s % 97),
        static_cast<std::uint8_t>(MsgCode::kCompete), /*color=*/3,
        /*counter=*/s * 7));
    append_jsonl(expected, events.back());
  }
  ASSERT_GT(expected.size(), std::size_t{1} << 17);
  const std::string path = ::testing::TempDir() + "obs_jsonl_chunks.jsonl";
  ASSERT_TRUE(write_jsonl_file(path, events));
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes, expected);
  std::remove(path.c_str());
}

// ------------------------------- metrics ---------------------------------

TEST(Metrics, WindowingGapFillAndCumulativePopulations) {
  MetricsSink sink(/*window=*/10);
  sink.record(Event::wake(0, 0));
  sink.record(Event::wake(5, 1));
  sink.record(Event::transmit(
      12, 0, static_cast<std::uint8_t>(MsgCode::kCompete), 0, 1));
  sink.record(Event::collision(35, 1));
  sink.record(Event::decision(36, 0, 2, 36));
  const TimeSeries series = sink.finish(/*slots_run=*/40);

  ASSERT_EQ(series.size(), 4u);  // windows 0,10,20,30 — gap at 20 filled
  const auto& rows = series.rows();
  EXPECT_EQ(rows[0].start, 0);
  EXPECT_EQ(rows[0].wakes, 2u);
  EXPECT_EQ(rows[0].awake_end, 2u);
  EXPECT_EQ(rows[0].decided_end, 0u);
  EXPECT_EQ(rows[0].active_end(), 2u);
  EXPECT_EQ(rows[1].transmissions, 1u);
  EXPECT_EQ(rows[2].start, 20);  // gap-filled empty window
  EXPECT_EQ(rows[2].transmissions, 0u);
  EXPECT_EQ(rows[2].awake_end, 2u);  // populations persist through gaps
  EXPECT_EQ(rows[3].collisions, 1u);
  EXPECT_EQ(rows[3].decisions, 1u);
  EXPECT_EQ(rows[3].decided_end, 1u);
  EXPECT_EQ(rows[3].active_end(), 1u);
  EXPECT_EQ(series.peak_collisions(), 1u);
}

TEST(Metrics, FinishPadsTrailingEmptyWindows) {
  MetricsSink sink(/*window=*/4);
  sink.record(Event::wake(0, 0));
  const TimeSeries series = sink.finish(/*slots_run=*/17);
  ASSERT_EQ(series.size(), 5u);  // ceil(17/4)
  EXPECT_EQ(series.rows().back().start, 16);
  EXPECT_EQ(series.rows().back().awake_end, 1u);
}

TEST(Metrics, CsvHasHeaderAndOneLinePerRow) {
  MetricsSink sink(/*window=*/2);
  sink.record(Event::wake(0, 0));
  sink.record(Event::collision(3, 0));
  const TimeSeries series = sink.finish(4);
  std::ostringstream os;
  series.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find(TimeSeries::csv_header()), std::string::npos);
  std::size_t lines = 0;
  for (char c : csv) lines += (c == '\n') ? 1u : 0u;
  EXPECT_EQ(lines, 1u + series.size());
}

TEST(Metrics, JsonExportIsWellFormedEnough) {
  MetricsSink sink(/*window=*/8);
  sink.record(Event::wake(1, 0));
  const TimeSeries series = sink.finish(8);
  std::ostringstream os;
  series.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"window\""), std::string::npos);
  EXPECT_NE(json.find("\"rows\""), std::string::npos);
}

// ---------------------------- trace analyzer ------------------------------

/// Record a real protocol run through a MemorySink.
MemorySink record_run(std::uint64_t seed, std::size_t n, core::Params& params,
                      bool* all_decided) {
  Rng rng(seed);
  auto net = graph::random_udg(n, 5.5, 1.4, rng);
  const graph::Graph g = std::move(net.graph);  // outlives the engine below
  const auto delta = std::max(2u, g.max_closed_degree());
  params = core::Params::practical(g.num_nodes(), delta, 5, 12);

  std::vector<core::ColoringNode> nodes;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    nodes.emplace_back(&params, v);
  }
  MemorySink sink;
  Rng wrng(mix_seed(seed, 5));
  radio::Engine<core::ColoringNode, MemorySink> engine(
      g, radio::WakeSchedule::uniform(g.num_nodes(), 600, wrng),
      std::move(nodes), seed, {}, &sink);
  const auto stats =
      engine.run(core::default_slot_budget(params, engine.schedule()));
  *all_decided = stats.all_decided;
  return sink;
}

class Fig2OnRealRuns : public ::testing::TestWithParam<int> {};

TEST_P(Fig2OnRealRuns, RecordedRunsAreLegalWalks) {
  core::Params params;
  bool all_decided = false;
  const MemorySink sink =
      record_run(static_cast<std::uint64_t>(GetParam()) + 31, 60, params,
                 &all_decided);
  ASSERT_TRUE(all_decided);

  const Fig2Report report = validate_fig2(sink.events(), params.kappa2);
  EXPECT_EQ(report.nodes_checked, 60u);
  EXPECT_GT(report.transitions_checked, 60u);
  for (const Fig2Violation& v : report.violations) {
    ADD_FAILURE() << "node " << v.node << " slot " << v.slot << ": "
                  << v.what;
  }
}

TEST_P(Fig2OnRealRuns, TimelinesMatchTheEventStream) {
  core::Params params;
  bool all_decided = false;
  const MemorySink sink =
      record_run(static_cast<std::uint64_t>(GetParam()) + 131, 40, params,
                 &all_decided);
  ASSERT_TRUE(all_decided);

  const auto timelines = build_timelines(sink.events());
  ASSERT_EQ(timelines.size(), 40u);
  for (const NodeTimeline& t : timelines) {
    EXPECT_TRUE(t.decided()) << "node " << t.node;
    EXPECT_GE(t.wake_slot, 0) << "node " << t.node;
    EXPECT_GE(t.latency(), 0) << "node " << t.node;
    EXPECT_GE(t.final_color, 0) << "node " << t.node;
    ASSERT_FALSE(t.phases.empty()) << "node " << t.node;
    // Last phase entered is the decided state carrying the final color.
    EXPECT_EQ(t.phases.back().phase,
              static_cast<std::uint8_t>(PhaseCode::kDecided));
    EXPECT_EQ(t.phases.back().color, t.final_color);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fig2OnRealRuns, ::testing::Range(0, 3));

std::vector<Event> legal_prefix() {
  // wake → A₀ → R → A_26 (κ₂ = 12 ⇒ first verify color 2·13 = 26).
  return {
      Event::wake(0, 0),
      Event::phase_change(0, 0, static_cast<std::uint8_t>(PhaseCode::kVerify),
                          0),
      Event::phase_change(10, 0,
                          static_cast<std::uint8_t>(PhaseCode::kRequest), 0),
      Event::phase_change(20, 0,
                          static_cast<std::uint8_t>(PhaseCode::kVerify), 26),
  };
}

TEST(Fig2Validator, AcceptsTheLegalHandBuiltWalk) {
  auto events = legal_prefix();
  events.push_back(Event::phase_change(
      30, 0, static_cast<std::uint8_t>(PhaseCode::kVerify), 27));
  events.push_back(Event::phase_change(
      40, 0, static_cast<std::uint8_t>(PhaseCode::kDecided), 27));
  events.push_back(Event::decision(40, 0, 27, 40));
  EXPECT_TRUE(validate_fig2(events, 12).ok());
}

TEST(Fig2Validator, RejectsA0SkippingToA1) {
  std::vector<Event> events = {
      Event::wake(0, 0),
      Event::phase_change(0, 0, static_cast<std::uint8_t>(PhaseCode::kVerify),
                          0),
      // Illegal: A₀ exits only to C₀ or R, never to A₁.
      Event::phase_change(5, 0, static_cast<std::uint8_t>(PhaseCode::kVerify),
                          1),
  };
  const Fig2Report report = validate_fig2(events, 0);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].node, 0u);
}

TEST(Fig2Validator, RejectsRequestExitOffTheTcLattice) {
  auto events = legal_prefix();
  // 27 is not a multiple of κ₂ + 1 = 13: legal without κ₂ knowledge,
  // illegal with it.
  events[3] = Event::phase_change(
      20, 0, static_cast<std::uint8_t>(PhaseCode::kVerify), 27);
  EXPECT_TRUE(validate_fig2(events, 0).ok());
  EXPECT_FALSE(validate_fig2(events, 12).ok());
}

TEST(Fig2Validator, RejectsLeavingADecidedState) {
  std::vector<Event> events = {
      Event::wake(0, 0),
      Event::phase_change(0, 0, static_cast<std::uint8_t>(PhaseCode::kVerify),
                          0),
      Event::phase_change(9, 0,
                          static_cast<std::uint8_t>(PhaseCode::kDecided), 0),
      // Illegal: C_i is terminal.
      Event::phase_change(12, 0,
                          static_cast<std::uint8_t>(PhaseCode::kVerify), 1),
  };
  EXPECT_FALSE(validate_fig2(events, 0).ok());
}

TEST(Fig2Validator, RejectsPhaseBeforeWake) {
  std::vector<Event> events = {
      Event::phase_change(3, 0, static_cast<std::uint8_t>(PhaseCode::kVerify),
                          0),
      Event::wake(5, 0),
  };
  EXPECT_FALSE(validate_fig2(events, 0).ok());
}

TEST(Fig2Validator, RejectsDecisionColorMismatch) {
  std::vector<Event> events = {
      Event::wake(0, 0),
      Event::phase_change(0, 0, static_cast<std::uint8_t>(PhaseCode::kVerify),
                          0),
      Event::phase_change(9, 0,
                          static_cast<std::uint8_t>(PhaseCode::kDecided), 0),
      Event::decision(9, 0, /*color=*/3, 9),  // C₀ but claims color 3
  };
  EXPECT_FALSE(validate_fig2(events, 0).ok());
}

// ----------------------------- traced runner ------------------------------

TEST(TracedRunner, ProducesSeriesAndLogAndMatchesUntracedRun) {
  Rng rng(77);
  const auto net = graph::random_udg(50, 5.0, 1.4, rng);
  const auto delta = std::max(2u, net.graph.max_closed_degree());
  const core::Params params =
      core::Params::practical(net.graph.num_nodes(), delta, 5, 12);
  const auto ws = radio::WakeSchedule::synchronous(net.graph.num_nodes());

  const std::string path = ::testing::TempDir() + "obs_traced_run.bin";
  core::TraceOptions trace;
  trace.metrics = true;
  trace.metrics_window = 32;
  trace.events_bin = path;

  const auto plain = core::run_coloring(net.graph, params, ws, 9);
  const auto traced =
      core::run_coloring_traced(net.graph, params, ws, 9, trace);

  // Tracing must not perturb the run: bit-identical outcome.
  ASSERT_TRUE(plain.all_decided);
  ASSERT_TRUE(traced.all_decided);
  EXPECT_EQ(traced.colors, plain.colors);
  EXPECT_EQ(traced.decision_slot, plain.decision_slot);
  EXPECT_EQ(traced.medium.transmissions, plain.medium.transmissions);
  EXPECT_EQ(traced.medium.collisions, plain.medium.collisions);

  // The series covers the whole run and sums to the population.
  ASSERT_TRUE(traced.series.has_value());
  const TimeSeries& series = *traced.series;
  EXPECT_EQ(series.window(), 32);
  ASSERT_GT(series.size(), 0u);
  std::uint64_t wakes = 0, decisions = 0, collisions = 0;
  for (const MetricsRow& row : series.rows()) {
    wakes += row.wakes;
    decisions += row.decisions;
    collisions += row.collisions;
  }
  EXPECT_EQ(wakes, 50u);
  EXPECT_EQ(decisions, 50u);
  EXPECT_EQ(collisions, traced.medium.collisions);
  EXPECT_EQ(series.rows().back().decided_end, 50u);
  EXPECT_EQ(series.rows().back().active_end(), 0u);

  // The log reads back and is a legal Fig. 2 execution.
  EXPECT_GT(traced.events_recorded, 0u);
  const ParsedTraceFile log = read_trace_file(path);
  ASSERT_TRUE(log.ok) << log.error;
  EXPECT_EQ(log.bad, 0u);
  EXPECT_EQ(log.events.size(), traced.events_recorded);
  EXPECT_TRUE(validate_fig2(log.events, params.kappa2).ok());
  std::remove(path.c_str());
}

TEST(TracedRunner, MetricsOnlyNeedsNoFile) {
  const graph::Graph g = graph::empty_graph(2);
  const core::Params params = core::Params::practical(16, 2, 2, 3);
  core::TraceOptions trace;
  trace.metrics = true;
  trace.metrics_window = 8;
  const auto run = core::run_coloring_traced(
      g, params, radio::WakeSchedule::synchronous(2), 1, trace);
  ASSERT_TRUE(run.all_decided);
  ASSERT_TRUE(run.series.has_value());
  EXPECT_EQ(run.events_recorded, 0u);  // no log attached
  EXPECT_EQ(run.series->rows().back().decided_end, 2u);
}

/// The profile counters one run adds (`core.<entry>.*`).
struct ProfileDeltas {
  std::uint64_t runs = 0, slots = 0, node_slots = 0;
};
ProfileDeltas profile_counts(const std::string& entry) {
  auto& reg = profile_registry();
  return {reg.counter(entry + ".runs").value(),
          reg.counter(entry + ".slots").value(),
          reg.counter(entry + ".node_slots").value()};
}
ProfileDeltas operator-(const ProfileDeltas& a, const ProfileDeltas& b) {
  return {a.runs - b.runs, a.slots - b.slots, a.node_slots - b.node_slots};
}

TEST(TracedRunner, EmptyOptionsAreThePlainRunFieldForField) {
  Rng rng(31);
  const auto net = graph::random_udg(60, 5.0, 1.4, rng);
  const core::Params params = core::Params::practical(
      net.graph.num_nodes(), std::max(2u, net.graph.max_closed_degree()), 5,
      12);
  Rng wrng(32);
  const auto ws = radio::WakeSchedule::uniform(net.graph.num_nodes(),
                                               2 * params.threshold(), wrng);
  const std::string entry = "core.run_coloring";

  const ProfileDeltas p0 = profile_counts(entry);
  const core::RunResult plain = core::run_coloring(net.graph, params, ws, 5);
  const ProfileDeltas p1 = profile_counts(entry);
  const core::RunResult traced = core::run_coloring_traced(
      net.graph, params, ws, 5, core::TraceOptions{});
  const ProfileDeltas p2 = profile_counts(entry);

  ASSERT_TRUE(plain.all_decided);
  EXPECT_EQ(traced.medium.slots_run, plain.medium.slots_run);
  EXPECT_EQ(traced.medium.transmissions, plain.medium.transmissions);
  EXPECT_EQ(traced.medium.deliveries, plain.medium.deliveries);
  EXPECT_EQ(traced.medium.collisions, plain.medium.collisions);
  EXPECT_EQ(traced.medium.dropped, plain.medium.dropped);
  EXPECT_EQ(traced.medium.all_decided, plain.medium.all_decided);
  EXPECT_EQ(traced.colors, plain.colors);
  EXPECT_EQ(traced.wake_slot, plain.wake_slot);
  EXPECT_EQ(traced.decision_slot, plain.decision_slot);
  EXPECT_EQ(traced.latency, plain.latency);
  EXPECT_EQ(traced.num_leaders, plain.num_leaders);
  EXPECT_EQ(traced.leader_of, plain.leader_of);
  EXPECT_EQ(traced.intra_cluster, plain.intra_cluster);
  EXPECT_EQ(traced.total_resets, plain.total_resets);
  EXPECT_EQ(traced.max_verify_states, plain.max_verify_states);
  EXPECT_EQ(traced.duplicate_serves, plain.duplicate_serves);
  EXPECT_FALSE(traced.series.has_value());
  EXPECT_EQ(traced.events_recorded, 0u);
  EXPECT_FALSE(traced.monitor.has_value());

  // Both entry points feed the profile registry the same deltas.
  const ProfileDeltas plain_delta = p1 - p0;
  const ProfileDeltas traced_delta = p2 - p1;
  EXPECT_EQ(plain_delta.runs, 1u);
  EXPECT_EQ(traced_delta.runs, plain_delta.runs);
  EXPECT_EQ(traced_delta.slots, plain_delta.slots);
  EXPECT_EQ(traced_delta.node_slots, plain_delta.node_slots);
  EXPECT_EQ(plain_delta.slots,
            static_cast<std::uint64_t>(plain.medium.slots_run));
}

TEST(TracedRunner, EmptyOptionsAreThePlainLeaderElection) {
  Rng rng(41);
  const auto net = graph::random_udg(60, 5.0, 1.4, rng);
  const core::Params params = core::Params::practical(
      net.graph.num_nodes(), std::max(2u, net.graph.max_closed_degree()), 5,
      12);
  const auto ws = radio::WakeSchedule::synchronous(net.graph.num_nodes());
  const std::string entry = "core.run_leader_election";

  const ProfileDeltas p0 = profile_counts(entry);
  const core::LeaderElectionResult plain =
      core::run_leader_election(net.graph, params, ws, 6);
  const ProfileDeltas p1 = profile_counts(entry);
  const core::LeaderElectionResult traced = core::run_leader_election_traced(
      net.graph, params, ws, 6, core::TraceOptions{});
  const ProfileDeltas p2 = profile_counts(entry);

  ASSERT_TRUE(plain.all_covered);
  EXPECT_EQ(traced.leaders, plain.leaders);
  EXPECT_EQ(traced.leader_of, plain.leader_of);
  EXPECT_EQ(traced.cover_latency, plain.cover_latency);
  EXPECT_EQ(traced.all_covered, plain.all_covered);
  EXPECT_EQ(traced.medium.slots_run, plain.medium.slots_run);
  EXPECT_EQ(traced.medium.transmissions, plain.medium.transmissions);
  EXPECT_EQ(traced.medium.deliveries, plain.medium.deliveries);
  EXPECT_EQ(traced.medium.collisions, plain.medium.collisions);
  EXPECT_EQ(traced.events_recorded, 0u);
  EXPECT_EQ((p1 - p0).runs, 1u);
  EXPECT_EQ((p2 - p1).runs, (p1 - p0).runs);
  EXPECT_EQ((p2 - p1).slots, (p1 - p0).slots);
}

TEST(TracedRunner, ObserverFansOutToEverySink) {
  // One run with metrics, the URNB log, the monitor and a memory capture
  // all on: each consumer sees the same event stream.
  Rng rng(51);
  const auto net = graph::random_udg(50, 5.0, 1.4, rng);
  const core::Params params = core::Params::practical(
      net.graph.num_nodes(), std::max(2u, net.graph.max_closed_degree()), 5,
      12);
  Rng wrng(52);
  const auto ws = radio::WakeSchedule::uniform(net.graph.num_nodes(),
                                               2 * params.threshold(), wrng);
  const std::string path = ::testing::TempDir() + "obs_fan_out.bin";
  MemorySink memory;
  core::TraceOptions trace;
  trace.metrics = true;
  trace.metrics_window = 16;
  trace.events_bin = path;
  trace.monitor = true;
  trace.memory = &memory;
  const core::RunResult run =
      core::run_coloring_traced(net.graph, params, ws, 3, trace);
  ASSERT_TRUE(run.all_decided);
  ASSERT_GT(memory.size(), 0u);

  // The log read back equals the memory capture.
  const ParsedTraceFile log = read_trace_file(path);
  ASSERT_TRUE(log.ok) << log.error;
  EXPECT_EQ(log.events, memory.events());

  // A MetricsSink fed the capture reproduces the run's series.
  MetricsSink metrics(16);
  for (const Event& e : memory.events()) metrics.record(e);
  ASSERT_TRUE(run.series.has_value());
  std::ostringstream want;
  std::ostringstream got;
  metrics.finish(run.medium.slots_run).write_csv(want);
  run.series->write_csv(got);
  EXPECT_EQ(got.str(), want.str());

  // The monitor and the log both saw every event.
  ASSERT_TRUE(run.monitor.has_value());
  EXPECT_TRUE(run.monitor->ok());
  EXPECT_EQ(run.monitor->events_seen, memory.size());
  EXPECT_EQ(run.events_recorded, memory.size());
  std::remove(path.c_str());
}

// ------------------------------- profiling --------------------------------

TEST(Profiling, CountersAccumulateAndSnapshotSorted) {
  telemetry::Registry reg;
  reg.counter("b.two").add(2);
  reg.counter("a.one").add(1);
  reg.counter("b.two").add(3);
  EXPECT_EQ(reg.counter("b.two").value(), 5u);
  EXPECT_EQ(reg.counter("a.one").value(), 1u);
  const auto snap = reg.snapshot().counters;
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].first, "a.one");
  EXPECT_EQ(snap[1].first, "b.two");
  reg.clear();
  EXPECT_TRUE(reg.empty());
}

TEST(Profiling, ScopeRecordsDurationAndCallCount) {
  telemetry::Registry reg;
  for (int i = 0; i < 3; ++i) {
    ProfileScope scope("work", &reg);
    EXPECT_GE(scope.elapsed_ns(), 0u);
  }
  EXPECT_EQ(reg.counter("work.calls").value(), 3u);
  EXPECT_GT(reg.counter("work.ns").value(), 0u);
}

TEST(Profiling, RunnerFeedsTheGlobalRegistry) {
  auto& reg = profile_registry();
  const std::uint64_t before = reg.counter("core.run_coloring.runs").value();
  const graph::Graph g = graph::empty_graph(1);
  const core::Params params = core::Params::practical(16, 2, 2, 3);
  (void)core::run_coloring(g, params, radio::WakeSchedule::synchronous(1), 1);
  EXPECT_EQ(reg.counter("core.run_coloring.runs").value(), before + 1);
  EXPECT_GT(reg.counter("core.run_coloring.slots").value(), 0u);
  // The live telemetry registry is a separate instance.
  EXPECT_NE(&reg, &telemetry::Registry::global());
}

}  // namespace
}  // namespace urn::obs

// Tests for the online invariant monitor and the bench regression
// differ.
//
// The monitor half works on hand-built adversarial event streams: one
// stream per invariant, each violating exactly the property under test,
// plus clean streams that must pass.  The integration half proves the
// sink contract end-to-end: a monitored run is bit-identical to an
// unmonitored one and a seeded run on a UDG reports zero violations.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/runner.hpp"
#include "graph/generators.hpp"
#include "obs/json.hpp"
#include "obs/monitor.hpp"
#include "obs/regress.hpp"
#include "radio/wakeup.hpp"
#include "support/rng.hpp"

namespace urn::obs {
namespace {

constexpr auto kVerify = static_cast<std::uint8_t>(PhaseCode::kVerify);
constexpr auto kRequest = static_cast<std::uint8_t>(PhaseCode::kRequest);
constexpr auto kDecided = static_cast<std::uint8_t>(PhaseCode::kDecided);

/// Two nodes joined by one edge, as CSR.
MonitorConfig two_node_config() {
  MonitorConfig config;
  config.adj_offsets = {0, 1, 2};
  config.adj = {1, 0};
  return config;
}

TEST(InvariantMonitor, CleanWalkReportsNothing) {
  MonitorConfig config = two_node_config();
  config.kappa2 = 2;
  config.latency_budget = 1000;
  config.theta = {5, 5};
  InvariantMonitorSink monitor(std::move(config));
  // Node 0: Z -> A0 -> C0 (a leader).
  monitor.record(Event::wake(0, 0));
  monitor.record(Event::phase_change(1, 0, kVerify, 0));
  monitor.record(Event::phase_change(5, 0, kDecided, 0));
  monitor.record(Event::decision(5, 0, 0, 5));
  // Node 1: Z -> A0 -> R -> A3 -> A4 -> C4 (k2+1 = 3 divides the R exit).
  monitor.record(Event::wake(0, 1));
  monitor.record(Event::phase_change(2, 1, kVerify, 0));
  monitor.record(Event::phase_change(6, 1, kRequest, -1));
  monitor.record(Event::phase_change(9, 1, kVerify, 3));
  monitor.record(Event::phase_change(12, 1, kVerify, 4));
  monitor.record(Event::phase_change(20, 1, kDecided, 4));
  const MonitorReport report = monitor.report();
  EXPECT_TRUE(report.ok()) << report.of(Invariant::kPhaseLegality).first_what;
  EXPECT_EQ(report.nodes_seen, 2u);
  EXPECT_EQ(report.events_seen, 10u);
}

TEST(InvariantMonitor, FlagsIllegalPhaseTransition) {
  InvariantMonitorSink monitor(MonitorConfig{});
  monitor.record(Event::wake(0, 7));
  // First transition must be verify(0); verify(3) is a Fig. 2 violation.
  monitor.record(Event::phase_change(4, 7, kVerify, 3));
  const MonitorReport report = monitor.report();
  EXPECT_FALSE(report.ok());
  const auto& p = report.of(Invariant::kPhaseLegality);
  EXPECT_EQ(p.count, 1u);
  EXPECT_EQ(p.first_slot, 4);
  EXPECT_EQ(p.first_node, 7u);
  EXPECT_NE(p.first_what.find("expected verify(0)"), std::string::npos);
}

TEST(InvariantMonitor, FlagsSkippedVerifyState) {
  InvariantMonitorSink monitor(MonitorConfig{});
  monitor.record(Event::wake(0, 3));
  monitor.record(Event::phase_change(1, 3, kVerify, 0));
  monitor.record(Event::phase_change(2, 3, kRequest, -1));
  monitor.record(Event::phase_change(3, 3, kVerify, 4));
  // A4 -> A6 skips A5: illegal.
  monitor.record(Event::phase_change(9, 3, kVerify, 6));
  const MonitorReport report = monitor.report();
  EXPECT_EQ(report.of(Invariant::kPhaseLegality).count, 1u);
  EXPECT_EQ(report.of(Invariant::kPhaseLegality).first_slot, 9);
}

TEST(InvariantMonitor, FlagsColorConflictBetweenNeighbors) {
  InvariantMonitorSink monitor(two_node_config());
  monitor.record(Event::wake(0, 0));
  monitor.record(Event::decision(10, 0, 5, 10));
  monitor.record(Event::wake(0, 1));
  monitor.record(Event::decision(20, 1, 5, 20));
  const MonitorReport report = monitor.report();
  EXPECT_FALSE(report.ok());
  const auto& p = report.of(Invariant::kColorConflict);
  EXPECT_EQ(p.count, 1u);
  EXPECT_EQ(p.first_slot, 20);
  EXPECT_EQ(p.first_node, 1u);
  EXPECT_NE(p.first_what.find("adjacent node 0"), std::string::npos);
  // Color 5 is not a leader color: independence untouched.
  EXPECT_EQ(report.of(Invariant::kLeaderIndependence).count, 0u);
}

TEST(InvariantMonitor, FlagsAdjacentLeaders) {
  InvariantMonitorSink monitor(two_node_config());
  monitor.record(Event::decision(10, 0, 0, 10));
  monitor.record(Event::decision(11, 1, 0, 11));
  const MonitorReport report = monitor.report();
  // Both the generic conflict and the leader-independence invariant trip.
  EXPECT_EQ(report.of(Invariant::kColorConflict).count, 1u);
  const auto& p = report.of(Invariant::kLeaderIndependence);
  EXPECT_EQ(p.count, 1u);
  EXPECT_EQ(p.first_slot, 11);
  EXPECT_EQ(p.first_node, 1u);
}

TEST(InvariantMonitor, DistantEqualColorsAreFine) {
  // Three nodes on a path 0-1-2: the endpoints may share a color.
  MonitorConfig config;
  config.adj_offsets = {0, 1, 3, 4};
  config.adj = {1, 0, 2, 1};
  InvariantMonitorSink monitor(std::move(config));
  monitor.record(Event::decision(10, 0, 4, 10));
  monitor.record(Event::decision(12, 2, 4, 12));
  monitor.record(Event::decision(14, 1, 9, 14));
  EXPECT_TRUE(monitor.report().ok());
}

TEST(InvariantMonitor, FlagsLocalityViolation) {
  MonitorConfig config;
  config.kappa2 = 2;
  config.theta = {1};
  InvariantMonitorSink monitor(std::move(config));
  // Bound is (k2+1)*theta + k2 = 5; color 6 exceeds it.
  monitor.record(Event::decision(30, 0, 6, 30));
  const MonitorReport report = monitor.report();
  const auto& p = report.of(Invariant::kLocality);
  EXPECT_EQ(p.count, 1u);
  EXPECT_EQ(p.first_slot, 30);
  EXPECT_EQ(p.first_node, 0u);
  EXPECT_NE(p.first_what.find("Theorem 4"), std::string::npos);
}

TEST(InvariantMonitor, LocalityBoundIsInclusive) {
  MonitorConfig config;
  config.kappa2 = 2;
  config.theta = {1};
  InvariantMonitorSink monitor(std::move(config));
  monitor.record(Event::decision(30, 0, 5, 30));  // exactly the bound
  EXPECT_TRUE(monitor.report().ok());
}

TEST(InvariantMonitor, FlagsLatencyBudgetOverrun) {
  MonitorConfig config;
  config.latency_budget = 50;
  InvariantMonitorSink monitor(std::move(config));
  monitor.record(Event::wake(10, 2));
  monitor.record(Event::decision(100, 2, 3, 90));  // T_v = 90 > 50
  const MonitorReport report = monitor.report();
  const auto& p = report.of(Invariant::kLatency);
  EXPECT_EQ(p.count, 1u);
  EXPECT_EQ(p.first_slot, 100);
  EXPECT_EQ(p.first_node, 2u);
}

TEST(InvariantMonitor, LatencyWithinBudgetIsFine) {
  MonitorConfig config;
  config.latency_budget = 50;
  InvariantMonitorSink monitor(std::move(config));
  monitor.record(Event::wake(10, 2));
  monitor.record(Event::decision(60, 2, 3, 50));  // T_v = 50, inclusive
  EXPECT_TRUE(monitor.report().ok());
}

TEST(InvariantMonitor, DecisionDisagreeingWithDecidedTransition) {
  InvariantMonitorSink monitor(MonitorConfig{});
  monitor.record(Event::wake(0, 1));
  monitor.record(Event::phase_change(1, 1, kVerify, 0));
  monitor.record(Event::phase_change(5, 1, kDecided, 0));
  monitor.record(Event::decision(5, 1, 3, 5));  // claims color 3, walked to 0
  const MonitorReport report = monitor.report();
  EXPECT_EQ(report.of(Invariant::kPhaseLegality).count, 1u);
}

// ---- integration: the monitor as an engine sink --------------------------

TEST(MonitorIntegration, SeededUdgRunReportsZeroViolations) {
  Rng rng(99);
  const auto net = graph::random_udg(80, 6.0, 1.4, rng);
  const auto delta = std::max(2u, net.graph.max_closed_degree());
  const core::Params p =
      core::Params::practical(net.graph.num_nodes(), delta, 5, 12);
  Rng wrng(7);
  const auto ws = radio::WakeSchedule::uniform(net.graph.num_nodes(),
                                               2 * p.threshold(), wrng);
  core::TraceOptions trace;
  trace.monitor = true;
  const auto run =
      core::run_coloring_traced(net.graph, p, ws, 1234, trace);
  ASSERT_TRUE(run.monitor.has_value());
  EXPECT_TRUE(run.monitor->ok())
      << "violations: " << run.monitor->total_violations();
  EXPECT_GT(run.monitor->events_seen, 0u);
  EXPECT_EQ(run.monitor->nodes_seen, net.graph.num_nodes());
}

TEST(MonitorIntegration, MonitoredRunIsBitIdenticalToPlainRun) {
  Rng rng(5);
  const auto net = graph::random_udg(60, 5.5, 1.4, rng);
  const auto delta = std::max(2u, net.graph.max_closed_degree());
  const core::Params p =
      core::Params::practical(net.graph.num_nodes(), delta, 5, 12);
  Rng wrng(11);
  const auto ws = radio::WakeSchedule::uniform(net.graph.num_nodes(),
                                               2 * p.threshold(), wrng);
  const auto plain = core::run_coloring(net.graph, p, ws, 777);
  core::TraceOptions trace;
  trace.monitor = true;
  const auto monitored =
      core::run_coloring_traced(net.graph, p, ws, 777, trace);
  EXPECT_EQ(plain.colors, monitored.colors);
  EXPECT_EQ(plain.decision_slot, monitored.decision_slot);
  EXPECT_EQ(plain.medium.slots_run, monitored.medium.slots_run);
  EXPECT_EQ(plain.medium.transmissions, monitored.medium.transmissions);
  EXPECT_EQ(plain.medium.collisions, monitored.medium.collisions);
  EXPECT_EQ(plain.total_resets, monitored.total_resets);
}

TEST(MonitorIntegration, MakeMonitorConfigMatchesGraphShape) {
  Rng rng(17);
  const auto net = graph::random_udg(40, 5.0, 1.4, rng);
  const auto delta = std::max(2u, net.graph.max_closed_degree());
  const core::Params p =
      core::Params::practical(net.graph.num_nodes(), delta, 4, 9);
  const auto ws = radio::WakeSchedule::synchronous(net.graph.num_nodes());
  const MonitorConfig config = core::make_monitor_config(net.graph, p, ws);
  EXPECT_EQ(config.kappa2, p.kappa2);
  EXPECT_EQ(config.theta.size(), net.graph.num_nodes());
  EXPECT_EQ(config.adj_offsets.size(), net.graph.num_nodes() + 1);
  EXPECT_EQ(config.adj.size(), 2 * net.graph.num_edges());
  EXPECT_EQ(config.latency_budget,
            core::default_slot_budget(p, ws) - ws.latest());
  EXPECT_GT(config.latency_budget, 0);
}

// ---- leader election on the shared sink path -----------------------------

TEST(LeaderElectionTraced, BitIdenticalToPlainAndMonitored) {
  Rng rng(23);
  const auto net = graph::random_udg(70, 6.0, 1.4, rng);
  const auto delta = std::max(2u, net.graph.max_closed_degree());
  const core::Params p =
      core::Params::practical(net.graph.num_nodes(), delta, 5, 12);
  Rng wrng(29);
  const auto ws = radio::WakeSchedule::uniform(net.graph.num_nodes(),
                                               2 * p.threshold(), wrng);
  const auto plain = core::run_leader_election(net.graph, p, ws, 31);
  core::TraceOptions trace;
  trace.monitor = true;
  trace.metrics = true;
  trace.metrics_window = 64;
  const auto traced = core::run_leader_election(net.graph, p, ws, 31, trace);
  EXPECT_EQ(plain.leaders, traced.leaders);
  EXPECT_EQ(plain.leader_of, traced.leader_of);
  EXPECT_EQ(plain.cover_latency, traced.cover_latency);
  EXPECT_EQ(plain.medium.slots_run, traced.medium.slots_run);
  EXPECT_EQ(plain.medium.transmissions, traced.medium.transmissions);
  ASSERT_TRUE(traced.series.has_value());
  EXPECT_GT(traced.series->size(), 0u);
  ASSERT_TRUE(traced.monitor.has_value());
  EXPECT_GT(traced.monitor->events_seen, 0u);
}

TEST(LeaderElectionTraced, HonorsMediumOptions) {
  Rng rng(37);
  const auto net = graph::random_udg(60, 5.5, 1.4, rng);
  const auto delta = std::max(2u, net.graph.max_closed_degree());
  const core::Params p =
      core::Params::practical(net.graph.num_nodes(), delta, 5, 12);
  const auto ws = radio::WakeSchedule::synchronous(net.graph.num_nodes());
  radio::MediumOptions medium;
  medium.drop_probability = 0.3;
  const auto faulty =
      core::run_leader_election(net.graph, p, ws, 41, {}, 0, medium);
  EXPECT_GT(faulty.medium.dropped, 0u);
  const auto ideal = core::run_leader_election(net.graph, p, ws, 41);
  EXPECT_EQ(ideal.medium.dropped, 0u);
}

// ---- bench regression differ ---------------------------------------------

TEST(BenchRegress, ParsesFlatJson) {
  const json::Doc doc = json::parse(
      "{\n  \"a.b\": 1.5,\n  \"s\": \"text\",\n  \"flag\": true\n}\n");
  ASSERT_TRUE(doc.ok);
  ASSERT_EQ(doc.entries.size(), 3u);
  const json::Entry* a = doc.find("a.b");
  ASSERT_NE(a, nullptr);
  EXPECT_TRUE(a->numeric);
  EXPECT_DOUBLE_EQ(a->value, 1.5);
  const json::Entry* s = doc.find("s");
  ASSERT_NE(s, nullptr);
  EXPECT_FALSE(s->numeric);
  EXPECT_EQ(s->raw, "\"text\"");
  EXPECT_FALSE(doc.find("flag")->numeric);
}

TEST(BenchRegress, IdenticalDocsPass) {
  const json::Doc a = json::parse("{\"x\": 3, \"y\": \"z\"}");
  const DiffReport r = diff_bench(a, a);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.compared, 2u);
}

TEST(BenchRegress, NumericDriftBeyondToleranceFails) {
  const json::Doc base = json::parse("{\"x\": 100}");
  const json::Doc fresh = json::parse("{\"x\": 104}");
  EXPECT_FALSE(diff_bench(base, fresh).ok());
  DiffOptions tol;
  tol.rel_tol = 0.05;
  EXPECT_TRUE(diff_bench(base, fresh, tol).ok());
  tol.rel_tol = 0.0;
  tol.abs_tol = 5.0;
  EXPECT_TRUE(diff_bench(base, fresh, tol).ok());
}

TEST(BenchRegress, MissingKeyIsARegression) {
  const json::Doc base = json::parse("{\"x\": 1, \"gone\": 2}");
  const json::Doc fresh = json::parse("{\"x\": 1}");
  const DiffReport r = diff_bench(base, fresh);
  ASSERT_EQ(r.regressions.size(), 1u);
  EXPECT_EQ(r.regressions[0].key, "gone");
  EXPECT_NE(r.regressions[0].what.find("missing"), std::string::npos);
}

TEST(BenchRegress, ExtraFreshKeysAreFine) {
  const json::Doc base = json::parse("{\"x\": 1}");
  const json::Doc fresh = json::parse("{\"x\": 1, \"new\": 9}");
  EXPECT_TRUE(diff_bench(base, fresh).ok());
}

TEST(BenchRegress, WallClockKeysSkippedByDefault) {
  const json::Doc base =
      json::parse("{\"profile.core.ns\": 123, \"x\": 1}");
  const json::Doc fresh =
      json::parse("{\"profile.core.ns\": 999, \"x\": 1}");
  const DiffReport r = diff_bench(base, fresh);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.skipped, 1u);
  EXPECT_EQ(r.compared, 1u);
}

TEST(BenchRegress, StringVsNumberNeverEqual) {
  const json::Doc base = json::parse("{\"x\": \"5\"}");
  const json::Doc fresh = json::parse("{\"x\": 5}");
  EXPECT_FALSE(diff_bench(base, fresh).ok());
}

// ---- rate-class keys (throughput metrics) --------------------------------

TEST(BenchRegress, RateKeysNeverComparedExactly) {
  // Machine-dependent throughput halves; with the default rate class the
  // key is checked for presence + numeric only, never for equality.
  const json::Doc base =
      json::parse("{\"engine.noderate.udg\": 200.0, \"x\": 1}");
  const json::Doc fresh =
      json::parse("{\"engine.noderate.udg\": 100.0, \"x\": 1}");
  const DiffReport r = diff_bench(base, fresh);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.compared, 2u);  // rate keys count as compared, not skipped
  EXPECT_EQ(r.skipped, 0u);
}

TEST(BenchRegress, MissingRateKeyIsARegression) {
  const json::Doc base = json::parse("{\"engine.noderate.udg\": 200.0}");
  const json::Doc fresh = json::parse("{\"x\": 1}");
  const DiffReport r = diff_bench(base, fresh);
  ASSERT_EQ(r.regressions.size(), 1u);
  EXPECT_NE(r.regressions[0].what.find("missing"), std::string::npos);
}

TEST(BenchRegress, NonNumericRateKeyIsARegression) {
  const json::Doc base = json::parse("{\"engine.noderate.udg\": 200.0}");
  const json::Doc fresh =
      json::parse("{\"engine.noderate.udg\": \"fast\"}");
  const DiffReport r = diff_bench(base, fresh);
  ASSERT_EQ(r.regressions.size(), 1u);
  EXPECT_NE(r.regressions[0].what.find("not numeric"), std::string::npos);
}

TEST(BenchRegress, RateTolFlagsOneSidedDrops) {
  const json::Doc base = json::parse("{\"engine.noderate.udg\": 200.0}");
  const json::Doc slower = json::parse("{\"engine.noderate.udg\": 120.0}");
  const json::Doc faster = json::parse("{\"engine.noderate.udg\": 900.0}");
  DiffOptions opt;
  opt.rate_rel_tol = 0.3;  // floor = 140.0
  EXPECT_FALSE(diff_bench(base, slower, opt).ok());
  EXPECT_TRUE(diff_bench(base, faster, opt).ok());  // faster is never wrong
  const json::Doc at_floor =
      json::parse("{\"engine.noderate.udg\": 140.0}");
  EXPECT_TRUE(diff_bench(base, at_floor, opt).ok());  // floor is inclusive
}

TEST(BenchRegress, EmptyRateClassFallsBackToExact) {
  const json::Doc base = json::parse("{\"engine.noderate.udg\": 200.0}");
  const json::Doc fresh = json::parse("{\"engine.noderate.udg\": 100.0}");
  DiffOptions opt;
  opt.rate_substrings.clear();
  EXPECT_FALSE(diff_bench(base, fresh, opt).ok());
}

// ---- explain-class keys (attribution metrics) ----------------------------

TEST(BenchRegress, ExplainKeysExactByDefault) {
  // With the default explain_tol = 0 the class degrades to an exact
  // comparison, so the committed gate stays bit-identical.
  const json::Doc base =
      json::parse("{\"explain.cause.collision.share\": 0.25}");
  const json::Doc same =
      json::parse("{\"explain.cause.collision.share\": 0.25}");
  const json::Doc drifted =
      json::parse("{\"explain.cause.collision.share\": 0.26}");
  EXPECT_TRUE(diff_bench(base, same).ok());
  EXPECT_FALSE(diff_bench(base, drifted).ok());
}

TEST(BenchRegress, ExplainTolAllowsTwoSidedDrift) {
  const json::Doc base =
      json::parse("{\"explain.cause.collision.share\": 0.25}");
  const json::Doc up =
      json::parse("{\"explain.cause.collision.share\": 0.30}");
  const json::Doc down =
      json::parse("{\"explain.cause.collision.share\": 0.20}");
  const json::Doc far_off =
      json::parse("{\"explain.cause.collision.share\": 0.60}");
  DiffOptions opt;
  opt.explain_tol = 0.1;  // allowed = 0.1 + 0.1*0.25 = 0.125, both sides
  EXPECT_TRUE(diff_bench(base, up, opt).ok());
  EXPECT_TRUE(diff_bench(base, down, opt).ok());
  EXPECT_FALSE(diff_bench(base, far_off, opt).ok());
}

TEST(BenchRegress, ExplainTolDoesNotLoosenOtherMetrics) {
  // The explain tolerance must not leak into the exact class.
  const json::Doc base = json::parse(
      "{\"explain.total_stall\": 100, \"coloring.latency.max\": 100}");
  const json::Doc fresh = json::parse(
      "{\"explain.total_stall\": 105, \"coloring.latency.max\": 105}");
  DiffOptions opt;
  opt.explain_tol = 0.1;  // allowed = 0.1 + 10 = 10.1 for explain keys
  const DiffReport r = diff_bench(base, fresh, opt);
  ASSERT_EQ(r.regressions.size(), 1u);
  EXPECT_EQ(r.regressions[0].key, "coloring.latency.max");
}

TEST(BenchRegress, ExplainStringKeyExactAtZeroTol) {
  const json::Doc base =
      json::parse("{\"explain.top_cause\": \"collision\"}");
  const json::Doc changed =
      json::parse("{\"explain.top_cause\": \"phase_wait\"}");
  EXPECT_FALSE(diff_bench(base, changed).ok());
  DiffOptions opt;
  opt.explain_tol = 0.1;  // nonzero tol: presence is enough for strings
  EXPECT_TRUE(diff_bench(base, changed, opt).ok());
}

TEST(BenchRegress, MissingExplainKeyIsARegression) {
  const json::Doc base = json::parse("{\"explain.total_stall\": 100}");
  const json::Doc fresh = json::parse("{\"x\": 1}");
  DiffOptions opt;
  opt.explain_tol = 1.0;  // tolerance never excuses a vanished metric
  const DiffReport r = diff_bench(base, fresh, opt);
  ASSERT_EQ(r.regressions.size(), 1u);
  EXPECT_EQ(r.regressions[0].key, "explain.total_stall");
}

TEST(BenchRegress, EmptyExplainClassFallsBackToExact) {
  const json::Doc base = json::parse("{\"explain.total_stall\": 100}");
  const json::Doc fresh = json::parse("{\"explain.total_stall\": 105}");
  DiffOptions opt;
  opt.explain_substrings.clear();
  opt.explain_tol = 1.0;  // without the class the tolerance is inert
  EXPECT_FALSE(diff_bench(base, fresh, opt).ok());
}

}  // namespace
}  // namespace urn::obs

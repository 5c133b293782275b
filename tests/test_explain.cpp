// Causal latency attribution (obs/explain.hpp): the exact-accounting
// invariant under a lossy-medium fuzz grid, cross-checked against both
// engine implementations; deterministic bootstrap diffing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/params.hpp"
#include "core/protocol.hpp"
#include "core/runner.hpp"
#include "graph/generators.hpp"
#include "obs/explain.hpp"
#include "obs/json.hpp"
#include "obs/sink.hpp"
#include "reference_engine.hpp"
#include "support/rng.hpp"

namespace urn {
namespace {

core::Params params_for(const graph::Graph& g) {
  const auto delta = std::max(2u, g.max_closed_degree());
  return core::Params::practical(g.num_nodes(), delta, 5, 12);
}

// ---- fuzz grid: drop probability x wake pattern ---------------------------
//
// For every cell: run the optimized engine traced into memory, attribute
// the capture, and demand (a) zero Fig. 2 violations, (b) the exactness
// invariant — every decided node's causes sum to its recorded decision
// latency, with wake/decision slots matching the RunResult — and
// (c) the naive reference engine reproduces the same decision slots, so
// the cross-check covers both medium implementations.

using FuzzCase = std::tuple<double, std::string, std::uint64_t>;

class ExplainFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(ExplainFuzz, CausesSumToRecordedLatencyOnBothEngines) {
  const auto& [drop, pattern, seed] = GetParam();
  Rng rng(seed);
  const graph::Graph g = graph::random_udg(60, 5.5, 1.5, rng).graph;
  const core::Params params = params_for(g);
  Rng wrng(mix_seed(seed, 0xA11CE));
  const radio::WakeSchedule schedule =
      pattern == "sync"
          ? radio::WakeSchedule::synchronous(g.num_nodes())
          : radio::WakeSchedule::uniform(g.num_nodes(),
                                         2 * params.threshold(), wrng);
  radio::MediumOptions medium;
  medium.drop_probability = drop;

  obs::MemorySink events;
  core::TraceOptions topts;
  topts.memory = &events;
  const std::uint64_t run_seed = mix_seed(seed, 0xD0);
  const core::RunResult run = core::run_coloring_traced(
      g, params, schedule, run_seed, topts, /*max_slots=*/0, medium);

  obs::ExplainConfig config;
  config.kappa2 = params.kappa2;
  config.passive_slots = params.passive_slots();
  const obs::ExplainReport report =
      obs::explain_trace(events.events(), config);

  EXPECT_EQ(report.fig2_violations, 0u);
  EXPECT_TRUE(report.exact_ok());
  ASSERT_EQ(report.nodes.size(), static_cast<std::size_t>(g.num_nodes()));
  for (const obs::NodeAttribution& node : report.nodes) {
    ASSERT_LT(static_cast<std::size_t>(node.node),
              run.decision_slot.size());
    EXPECT_EQ(node.wake_slot, run.wake_slot[node.node]);
    EXPECT_EQ(node.decision_slot, run.decision_slot[node.node]);
    if (node.decided) {
      EXPECT_EQ(node.stall(),
                run.decision_slot[node.node] - run.wake_slot[node.node])
          << "node " << node.node;
    }
  }

  std::vector<core::ColoringNode> ref_nodes;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    ref_nodes.emplace_back(&params, v);
  }
  testing::ReferenceEngine<core::ColoringNode> ref(
      g, schedule, std::move(ref_nodes), run_seed, medium);
  for (radio::Slot t = 0; t < run.medium.slots_run; ++t) ref.step();
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(ref.decision_slot(v), run.decision_slot[v]) << "node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DropAndWakeGrid, ExplainFuzz,
    ::testing::Values(FuzzCase{0.10, "sync", 21},
                      FuzzCase{0.10, "uniform", 22},
                      FuzzCase{0.20, "sync", 23},
                      FuzzCase{0.20, "uniform", 24},
                      FuzzCase{0.35, "sync", 25},
                      FuzzCase{0.35, "uniform", 26}),
    [](const ::testing::TestParamInfo<FuzzCase>& info) {
      return "drop" +
             std::to_string(
                 static_cast<int>(100.0 * std::get<0>(info.param))) +
             "_" + std::get<1>(info.param) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

// ---- span collection ------------------------------------------------------

/// A traced 40-node run attributed with cause spans.
obs::ExplainReport spans_report() {
  Rng rng(7);
  const graph::Graph g = graph::random_udg(40, 4.5, 1.5, rng).graph;
  const core::Params params = params_for(g);
  Rng wrng(77);
  const auto schedule = radio::WakeSchedule::uniform(
      g.num_nodes(), 2 * params.threshold(), wrng);

  obs::MemorySink events;
  core::TraceOptions topts;
  topts.memory = &events;
  (void)core::run_coloring_traced(g, params, schedule, 0xBAD5EED, topts);

  obs::ExplainConfig config;
  config.kappa2 = params.kappa2;
  config.passive_slots = params.passive_slots();
  config.collect_spans = true;
  return obs::explain_trace(events.events(), config);
}

TEST(ExplainSpans, TileEachNodesWindowAndMatchTheCauseTotals) {
  const obs::ExplainReport report = spans_report();
  ASSERT_EQ(report.spans.size(), report.nodes.size());

  for (std::size_t i = 0; i < report.nodes.size(); ++i) {
    const obs::NodeAttribution& node = report.nodes[i];
    std::int64_t per_cause[obs::kNumCauses] = {};
    obs::Slot cursor = 0;
    for (const obs::CauseSpan& span : report.spans[i]) {
      EXPECT_EQ(span.begin, cursor);  // contiguous tiling, no gaps
      ASSERT_LT(span.begin, span.end);
      per_cause[static_cast<std::size_t>(span.cause)] += span.end - span.begin;
      cursor = span.end;
    }
    for (std::size_t c = 0; c < obs::kNumCauses; ++c) {
      EXPECT_EQ(per_cause[c], node.causes[c])
          << "node " << node.node << " cause " << c;
    }
  }
}

TEST(ExplainSpans, ChromeIcicleHasOneTrackPerNodeTilingItsWindow) {
  const obs::ExplainReport report = spans_report();
  const std::string path = ::testing::TempDir() + "explain_icicle.json";
  ASSERT_TRUE(obs::write_explain_chrome_file(path, report));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  // One record per line between the `{"traceEvents":[` and `]}` lines.
  std::vector<std::string> records;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("{\"name\"", 0) != 0) continue;
    if (line.back() == ',') line.pop_back();
    records.push_back(line);
  }
  in.close();
  std::remove(path.c_str());

  std::size_t threads = 0;
  std::map<std::uint64_t, std::vector<std::pair<obs::Slot, obs::Slot>>>
      slices;  // tid -> (ts, dur), file order
  for (const std::string& r : records) {
    for (const char* key : {"\"ph\":", "\"ts\":", "\"pid\":", "\"tid\":"}) {
      EXPECT_NE(r.find(key), std::string::npos) << key << " in " << r;
    }
    if (r.find("\"thread_name\"") != std::string::npos) ++threads;
    if (r.find("\"ph\":\"X\"") == std::string::npos) continue;
    const obs::json::Doc slice = obs::json::parse(r);  // X records are flat
    ASSERT_TRUE(slice.ok) << r;
    slices[static_cast<std::uint64_t>(slice.find("tid")->value)].emplace_back(
        static_cast<obs::Slot>(slice.find("ts")->value),
        static_cast<obs::Slot>(slice.find("dur")->value));
  }
  EXPECT_EQ(threads, report.nodes.size());
  ASSERT_FALSE(report.nodes.empty());
  for (const obs::NodeAttribution& n : report.nodes) {
    ASSERT_GE(n.wake_slot, 0);
    const obs::Slot window_end =
        n.decided ? n.decision_slot : report.stats.last_slot + 1;
    obs::Slot cursor = 0;
    for (const auto& [ts, dur] : slices[n.node]) {
      EXPECT_EQ(ts, cursor) << "node " << n.node;
      EXPECT_GT(dur, 0) << "node " << n.node;
      cursor = ts + dur;
    }
    EXPECT_EQ(cursor, window_end) << "node " << n.node;
  }
}

// ---- degenerate inputs ----------------------------------------------------

TEST(ExplainTrace, EmptyTraceYieldsEmptyExactReport) {
  const obs::ExplainReport report = obs::explain_trace({}, {});
  EXPECT_TRUE(report.nodes.empty());
  EXPECT_TRUE(report.exact_ok());
  EXPECT_EQ(report.total_stall(), 0);
  EXPECT_EQ(report.decided_nodes, 0u);
}

// ---- differential mode ----------------------------------------------------

obs::ExplainReport explained_run(double drop, std::uint64_t seed) {
  Rng rng(seed);
  const graph::Graph g = graph::random_udg(50, 5.0, 1.5, rng).graph;
  const core::Params params = params_for(g);
  Rng wrng(mix_seed(seed, 3));
  const auto schedule = radio::WakeSchedule::uniform(
      g.num_nodes(), 2 * params.threshold(), wrng);
  radio::MediumOptions medium;
  medium.drop_probability = drop;
  obs::MemorySink events;
  core::TraceOptions topts;
  topts.memory = &events;
  (void)core::run_coloring_traced(g, params, schedule, mix_seed(seed, 9),
                                  topts, /*max_slots=*/0, medium);
  obs::ExplainConfig config;
  config.kappa2 = params.kappa2;
  config.passive_slots = params.passive_slots();
  return obs::explain_trace(events.events(), config);
}

TEST(ExplainDiff, BootstrapIsDeterministicAndSelfDiffIsNull) {
  const obs::ExplainReport clean = explained_run(0.0, 31);
  const obs::ExplainReport lossy = explained_run(0.25, 31);

  obs::ExplainDiffOptions options;
  options.resamples = 200;
  const obs::ExplainDiff once = obs::diff_explain(clean, lossy, options);
  const obs::ExplainDiff twice = obs::diff_explain(clean, lossy, options);
  for (std::size_t c = 0; c < obs::kNumCauses; ++c) {
    EXPECT_EQ(once.causes[c].delta_mean, twice.causes[c].delta_mean);
    EXPECT_EQ(once.causes[c].ci_lo, twice.causes[c].ci_lo);
    EXPECT_EQ(once.causes[c].ci_hi, twice.causes[c].ci_hi);
    EXPECT_EQ(once.causes[c].significant, twice.causes[c].significant);
  }

  // A run diffed against itself: zero deltas, nothing significant.
  const obs::ExplainDiff self = obs::diff_explain(clean, clean, options);
  EXPECT_EQ(self.nodes_a, self.nodes_b);
  EXPECT_DOUBLE_EQ(self.speedup, 1.0);
  for (const obs::CauseDelta& d : self.causes) {
    EXPECT_EQ(d.delta_mean, 0.0) << obs::cause_name(d.cause);
    EXPECT_FALSE(d.significant) << obs::cause_name(d.cause);
  }
}

}  // namespace
}  // namespace urn

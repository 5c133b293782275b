// Tests for the deterministic parallel trial executor (src/exec) and the
// merge-safe aggregation it depends on.
//
// The load-bearing property is *bit-identity*: for every jobs count and
// every chunk size, parallel_for_trials must produce exactly the result
// of the serial loop — same counts, same sample streams in the same
// order, same percentiles, same first-violation attribution.  The tests
// here check that property at every layer: the chunk plan (fuzzed), the
// pool, the generic executor, the merge algebra of Samples /
// CoreAggregate, and finally the public run_core_trials entry point
// against real protocol runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/experiment.hpp"
#include "core/params.hpp"
#include "exec/chunk.hpp"
#include "exec/parallel.hpp"
#include "exec/pool.hpp"
#include "graph/generators.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace urn::exec {
namespace {

// ------------------------------------------------------------ chunk plan --

TEST(ChunkPlan, SplitsExactly) {
  const auto plan = chunk_plan(10, 4);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0], (TrialRange{0, 4}));
  EXPECT_EQ(plan[1], (TrialRange{4, 8}));
  EXPECT_EQ(plan[2], (TrialRange{8, 10}));
}

TEST(ChunkPlan, EmptyAndSingleton) {
  EXPECT_TRUE(chunk_plan(0, 1).empty());
  EXPECT_TRUE(chunk_plan(0, 0).empty());  // chunk irrelevant when no work
  const auto one = chunk_plan(1, 100);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], (TrialRange{0, 1}));
}

TEST(ChunkPlan, ZeroChunkWithWorkIsAnError) {
  EXPECT_THROW((void)chunk_plan(5, 0), CheckError);
}

TEST(ChunkPlan, FuzzCoversEveryIndexExactlyOnce) {
  Rng rng(0xC4A1);
  for (int iter = 0; iter < 500; ++iter) {
    const auto trials = static_cast<std::size_t>(rng.below(200));
    const auto chunk = static_cast<std::size_t>(1 + rng.below(40));
    const auto plan = chunk_plan(trials, chunk);
    std::vector<int> seen(trials, 0);
    std::size_t prev_end = 0;
    for (const TrialRange& r : plan) {
      // Consecutive, in order, non-empty, in range.
      EXPECT_EQ(r.begin, prev_end);
      EXPECT_LT(r.begin, r.end);
      EXPECT_LE(r.end, trials);
      EXPECT_LE(r.size(), chunk);
      for (std::size_t t = r.begin; t < r.end; ++t) ++seen[t];
      prev_end = r.end;
    }
    EXPECT_EQ(prev_end, trials);
    for (std::size_t t = 0; t < trials; ++t) EXPECT_EQ(seen[t], 1);
  }
}

TEST(ChunkPlan, ResolveJobs) {
  EXPECT_EQ(resolve_jobs(1), 1u);
  EXPECT_EQ(resolve_jobs(7), 7u);
  EXPECT_GE(resolve_jobs(0), 1u);  // hardware count, at least 1
  EXPECT_EQ(resolve_jobs(kMaxJobs), kMaxJobs);
}

TEST(ChunkPlan, ResolveJobsRejectsRequestsOverTheLimit) {
  // Checked before any worker thread could start, in Release builds too.
  EXPECT_THROW((void)resolve_jobs(kMaxJobs + 1), CheckError);
  EXPECT_THROW((void)resolve_jobs(static_cast<std::size_t>(-1)), CheckError);
}

TEST(ChunkPlan, DefaultChunkNeverZero) {
  Rng rng(0xC4A2);
  for (int iter = 0; iter < 200; ++iter) {
    const auto trials = static_cast<std::size_t>(rng.below(1000));
    const auto jobs = static_cast<std::size_t>(1 + rng.below(64));
    EXPECT_GE(default_chunk(trials, jobs), 1u);
  }
}

// ------------------------------------------------------------------ pool --

TEST(TrialPool, RunsEveryChunkExactlyOnce) {
  for (std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    TrialPool pool(jobs);
    EXPECT_EQ(pool.jobs(), jobs);
    std::vector<std::atomic<int>> hits(23);
    pool.run(hits.size(),
             [&](std::size_t ci) { hits[ci].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(TrialPool, ReusableAcrossRuns) {
  TrialPool pool(3);
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> total{0};
    pool.run(11, [&](std::size_t) { total.fetch_add(1); });
    EXPECT_EQ(total.load(), 11);
  }
}

TEST(TrialPool, ZeroChunksIsANoop) {
  TrialPool pool(2);
  pool.run(0, [&](std::size_t) { FAIL() << "must not be called"; });
}

TEST(TrialPool, PropagatesExceptionsAndSurvives) {
  for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    TrialPool pool(jobs);
    EXPECT_THROW(pool.run(8,
                          [](std::size_t ci) {
                            if (ci == 3) throw std::runtime_error("boom");
                          }),
                 std::runtime_error);
    // The pool must stay usable after a failed run.
    std::atomic<int> total{0};
    pool.run(4, [&](std::size_t) { total.fetch_add(1); });
    EXPECT_EQ(total.load(), 4);
  }
}

// --------------------------------------------------- parallel_for_trials --

// The executor must deliver trial indices to the merged result in exactly
// serial order for every (jobs, chunk) combination.
TEST(ParallelForTrials, TrialOrderIsSerialForEveryJobsAndChunk) {
  using Order = std::vector<std::size_t>;
  const std::size_t trials = 37;
  Order expected(trials);
  std::iota(expected.begin(), expected.end(), 0u);
  const std::size_t hw = std::thread::hardware_concurrency();
  for (std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                           hw == 0 ? std::size_t{4} : hw}) {
    for (std::size_t chunk :
         {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{100}}) {
      const Order got = parallel_for_trials<Order>(
          trials, {jobs, chunk},
          [](Order& acc, std::size_t t) { acc.push_back(t); },
          [](Order& into, Order&& part) {
            into.insert(into.end(), part.begin(), part.end());
          });
      EXPECT_EQ(got, expected) << "jobs=" << jobs << " chunk=" << chunk;
    }
  }
}

// map_trials hands back one result per trial in trial order, whoever ran
// it: a loop that folds the results afterwards is the serial loop.
TEST(MapTrials, ResultsComeBackInTrialOrderForEveryJobsAndChunk) {
  const std::size_t trials = 23;
  std::vector<std::uint64_t> expected;
  for (std::size_t t = 0; t < trials; ++t) expected.push_back(mix_seed(7, t));
  for (std::size_t jobs = 1; jobs <= 4; ++jobs) {
    for (std::size_t chunk : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{5}, std::size_t{100}}) {
      const std::vector<std::uint64_t> got = map_trials(
          trials, {jobs, chunk}, [](std::size_t t) { return mix_seed(7, t); });
      EXPECT_EQ(got, expected) << "jobs=" << jobs << " chunk=" << chunk;
    }
  }
  EXPECT_TRUE(map_trials(0, {3, 0}, [](std::size_t t) { return t; }).empty());
}

// Workers share one immutable graph; each 2-hop walk in κ₂ uses its own
// thread's flag scratch.  Four workers measuring the same graph at once
// (the TSan leg runs this) must each get the serial answer.
TEST(MapTrials, SharedGraphBoundsMatchSerial) {
  Rng rng(0xB0D5);
  const auto net = graph::random_udg(150, 6.0, 1.5, rng);
  const core::GraphBounds serial = core::measure_bounds(net.graph);
  const auto bounds = map_trials(8, {4, 1}, [&](std::size_t) {
    return core::measure_bounds(net.graph);
  });
  ASSERT_EQ(bounds.size(), 8u);
  for (const core::GraphBounds& b : bounds) {
    EXPECT_EQ(b.delta, serial.delta);
    EXPECT_EQ(b.kappa1, serial.kappa1);
    EXPECT_EQ(b.kappa2, serial.kappa2);
    EXPECT_EQ(b.exact, serial.exact);
  }
}

TEST(ParallelForTrials, ZeroTrialsYieldsDefaultPartial) {
  const int got = parallel_for_trials<int>(
      0, {4, 0}, [](int& acc, std::size_t) { acc = 99; },
      [](int& into, int&& part) { into += part; });
  EXPECT_EQ(got, 0);
}

TEST(ParallelForTrials, BodyExceptionPropagates) {
  EXPECT_THROW((void)parallel_for_trials<int>(
                   16, {4, 1},
                   [](int&, std::size_t t) {
                     if (t == 9) throw std::runtime_error("trial failed");
                   },
                   [](int& into, int&& part) { into += part; }),
               std::runtime_error);
}

// ----------------------------------------------------------- Samples merge -

// Property: merging ANY in-order partition of a sample stream equals
// having added the whole stream to one Samples — every statistic and the
// raw value vector are bit-identical.
TEST(SamplesMerge, AnyOrderedPartitionEqualsWholeStream) {
  Rng rng(0x5A3B);
  for (int iter = 0; iter < 100; ++iter) {
    const auto n = static_cast<std::size_t>(1 + rng.below(200));
    std::vector<double> stream(n);
    for (double& x : stream) x = rng.uniform(-1e6, 1e6);

    Samples whole;
    for (double x : stream) whole.add(x);

    // Random partition into consecutive blocks, merged in order.
    Samples merged;
    std::size_t i = 0;
    while (i < n) {
      const auto len = static_cast<std::size_t>(1 + rng.below(n - i));
      Samples block;
      for (std::size_t k = 0; k < len; ++k) block.add(stream[i + k]);
      merged.merge(block);
      i += len;
    }

    ASSERT_EQ(merged.count(), whole.count());
    EXPECT_EQ(merged.values(), whole.values());  // exact, order included
    EXPECT_EQ(merged.min(), whole.min());
    EXPECT_EQ(merged.max(), whole.max());
    EXPECT_EQ(merged.mean(), whole.mean());
    EXPECT_EQ(merged.percentile(50.0), whole.percentile(50.0));
    EXPECT_EQ(merged.percentile(95.0), whole.percentile(95.0));
  }
}

TEST(SamplesMerge, EmptyIsIdentity) {
  Samples a;
  a.add(3.0);
  a.add(1.0);
  Samples empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  Samples b;
  b.merge(a);
  EXPECT_EQ(b.values(), a.values());
}

}  // namespace
}  // namespace urn::exec

// ------------------------------------------------- aggregate merge + runs --

namespace urn::analysis {
namespace {

CoreAggregate::FirstViolation violation_at(std::size_t trial,
                                           obs::Slot slot) {
  CoreAggregate::FirstViolation v;
  v.trial = trial;
  v.slot = slot;
  v.what = "synthetic";
  return v;
}

TEST(CoreAggregateMerge, FirstViolationLowestTrialWinsBothOrders) {
  CoreAggregate early;
  early.trials = 4;
  early.monitor_violations = 1;
  early.first_violation = violation_at(2, 700);
  CoreAggregate late;
  late.trials = 4;
  late.monitor_violations = 2;
  late.first_violation = violation_at(5, 10);  // earlier slot, later trial

  CoreAggregate a = early;
  a.merge(late);
  ASSERT_TRUE(a.first_violation.has_value());
  EXPECT_EQ(a.first_violation->trial, 2u);
  EXPECT_EQ(a.monitor_violations, 3u);
  EXPECT_FALSE(a.monitor_ok());

  CoreAggregate b = late;
  b.merge(early);
  ASSERT_TRUE(b.first_violation.has_value());
  EXPECT_EQ(b.first_violation->trial, 2u);  // same winner, either order
}

TEST(CoreAggregateMerge, ViolationFromEitherSideSurvives) {
  CoreAggregate none;
  none.trials = 3;
  CoreAggregate one;
  one.trials = 3;
  one.first_violation = violation_at(1, 5);

  CoreAggregate a = none;
  a.merge(one);
  ASSERT_TRUE(a.first_violation.has_value());
  EXPECT_EQ(a.first_violation->trial, 1u);

  CoreAggregate b = one;
  b.merge(none);
  ASSERT_TRUE(b.first_violation.has_value());
  EXPECT_EQ(b.first_violation->trial, 1u);
}

// ------------------------------------------------ serial-vs-parallel runs --

struct Fixture {
  graph::GeometricGraph net;
  core::Params params;
};

Fixture make_fixture(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  auto net = graph::random_udg(n, 5.0, 1.4, rng);
  const auto delta = std::max(2u, net.graph.max_closed_degree());
  auto params = core::Params::practical(net.graph.num_nodes(), delta, 5, 10);
  return {std::move(net), params};
}

void expect_samples_identical(const Samples& a, const Samples& b,
                              const char* what) {
  EXPECT_EQ(a.values(), b.values()) << what;  // exact, order included
}

void expect_core_identical(const CoreAggregate& a, const CoreAggregate& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.completed, b.completed);
  expect_samples_identical(a.max_latency, b.max_latency, "max_latency");
  expect_samples_identical(a.mean_latency, b.mean_latency, "mean_latency");
  expect_samples_identical(a.p95_latency, b.p95_latency, "p95_latency");
  expect_samples_identical(a.max_color, b.max_color, "max_color");
  expect_samples_identical(a.distinct_colors, b.distinct_colors,
                           "distinct_colors");
  expect_samples_identical(a.leaders, b.leaders, "leaders");
  expect_samples_identical(a.resets_per_node, b.resets_per_node,
                           "resets_per_node");
  expect_samples_identical(a.slots_run, b.slots_run, "slots_run");
  EXPECT_EQ(a.monitor_events, b.monitor_events);
  EXPECT_EQ(a.monitor_violations, b.monitor_violations);
  EXPECT_EQ(a.first_violation.has_value(), b.first_violation.has_value());
}

std::vector<std::size_t> jobs_grid() {
  const std::size_t hw = std::thread::hardware_concurrency();
  return {1, 2, 7, hw == 0 ? 4 : hw};
}

TEST(RunCoreTrials, ParallelIsBitIdenticalToSerial) {
  const Fixture f = make_fixture(0xF1, 48);
  const auto factory =
      uniform_schedule(f.net.graph.num_nodes(), 2 * f.params.threshold());
  for (std::size_t trials : {std::size_t{5}, std::size_t{9}}) {
    TrialExecOptions serial;  // jobs = 1
    const CoreAggregate base = run_core_trials(f.net.graph, f.params, factory,
                                               trials, 0xF1F0, serial);
    EXPECT_EQ(base.trials, trials);
    for (std::size_t jobs : jobs_grid()) {
      TrialExecOptions exec;
      exec.jobs = jobs;
      const CoreAggregate par = run_core_trials(f.net.graph, f.params,
                                                factory, trials, 0xF1F0,
                                                exec);
      expect_core_identical(par, base);
    }
  }
}

TEST(RunCoreTrials, ChunkSizeNeverChangesResults) {
  const Fixture f = make_fixture(0xF2, 40);
  const auto factory = synchronous_schedule(f.net.graph.num_nodes());
  TrialExecOptions serial;
  const CoreAggregate base = run_core_trials(f.net.graph, f.params, factory,
                                             7, 0xF2F0, serial);
  for (std::size_t chunk : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                            std::size_t{100}}) {
    TrialExecOptions exec;
    exec.jobs = 4;
    exec.chunk = chunk;
    const CoreAggregate par = run_core_trials(f.net.graph, f.params, factory,
                                              7, 0xF2F0, exec);
    expect_core_identical(par, base);
  }
}

TEST(RunCoreTrials, SerialOverloadMatchesExecutorPath) {
  const Fixture f = make_fixture(0xF3, 36);
  const auto factory = synchronous_schedule(f.net.graph.num_nodes());
  const CoreAggregate legacy =
      run_core_trials(f.net.graph, f.params, factory, 4, 0xF3F0);
  TrialExecOptions exec;
  exec.jobs = 3;
  const CoreAggregate par =
      run_core_trials(f.net.graph, f.params, factory, 4, 0xF3F0, exec);
  expect_core_identical(par, legacy);
}

TEST(RunCoreTrials, MonitoredRunsAreBitIdenticalAndClean) {
  const Fixture f = make_fixture(0xF4, 40);
  const auto factory =
      uniform_schedule(f.net.graph.num_nodes(), 2 * f.params.threshold());
  TrialExecOptions plain;
  const CoreAggregate base = run_core_trials(f.net.graph, f.params, factory,
                                             5, 0xF4F0, plain);
  TrialExecOptions mon_serial = plain;
  mon_serial.monitor = true;
  const CoreAggregate mserial = run_core_trials(f.net.graph, f.params,
                                                factory, 5, 0xF4F0,
                                                mon_serial);
  // Monitoring never perturbs the runs and the protocol is clean.
  EXPECT_GT(mserial.monitor_events, 0u);
  EXPECT_TRUE(mserial.monitor_ok());
  EXPECT_FALSE(mserial.first_violation.has_value());
  expect_samples_identical(mserial.slots_run, base.slots_run, "slots_run");
  expect_samples_identical(mserial.max_latency, base.max_latency,
                           "max_latency");
  for (std::size_t jobs : jobs_grid()) {
    TrialExecOptions exec = mon_serial;
    exec.jobs = jobs;
    const CoreAggregate mpar = run_core_trials(f.net.graph, f.params,
                                               factory, 5, 0xF4F0, exec);
    expect_core_identical(mpar, mserial);
  }
}

}  // namespace
}  // namespace urn::analysis

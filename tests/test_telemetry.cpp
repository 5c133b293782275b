// Tests for the live telemetry subsystem (src/obs/telemetry).
//
// The load-bearing properties:
//
//  * exactness — sharded counters and histograms lose nothing under
//    concurrent hammering (relaxed adds on disjoint cache lines, sums
//    commute), so a snapshot at quiescence equals the serial total;
//  * merge algebra — HistogramSnapshot::merge over *any* partition of a
//    sample stream, in any order, is bit-identical to recording the whole
//    stream into one histogram (the same partition-invariant algebra the
//    trial executor pins for Samples);
//  * probe fidelity — an EngineProbe-instrumented run leaves the registry
//    equal, field for field, to the run's own RunStats, with zero gauge
//    residue, and never perturbs results (bit-identity);
//  * export round-trip — the JSONL snapshot line parses with
//    obs::json::parse (what urn_top tails), its bytes are pinned, and the
//    Prometheus exposition is well-formed (cumulative buckets, +Inf ==
//    count);
//  * the bench regression differ skips `telemetry.*` keys by default, so
//    telemetry-enabled bench runs can never flake the gate.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "analysis/experiment.hpp"
#include "core/params.hpp"
#include "core/runner.hpp"
#include "exec/pool.hpp"
#include "graph/generators.hpp"
#include "obs/profile.hpp"
#include "obs/json.hpp"
#include "obs/regress.hpp"
#include "obs/telemetry.hpp"
#include "radio/misaligned_engine.hpp"
#include "support/rng.hpp"

namespace urn::obs::telemetry {
namespace {

// ----------------------------------------------------------- primitives --

TEST(TelemetryCounter, AccumulatesAndSumsShards) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add(3);
  c.add(4);
  EXPECT_EQ(c.value(), 7u);
  // Explicit shards: the sum is shard-location independent.
  c.add_to_shard(0, 10);
  c.add_to_shard(kShards - 1, 20);
  c.add_to_shard(kShards + 2, 30);  // wraps to shard 2
  EXPECT_EQ(c.value(), 67u);
}

TEST(TelemetryCounter, ExactUnderConcurrentHammering) {
  Counter c;
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(TelemetryGauge, SetAddValue) {
  Gauge g;
  EXPECT_EQ(g.value(), 0);
  g.set(42);
  EXPECT_EQ(g.value(), 42);
  g.add(-50);
  EXPECT_EQ(g.value(), -8);
}

// ------------------------------------------------------ histogram buckets --

TEST(TelemetryHistogram, BucketBoundaries) {
  // Bucket b holds the values of bit width b: 0 → bucket 0, then
  // [2^(b−1), 2^b − 1] → bucket b.
  EXPECT_EQ(bucket_of(0), 0u);
  EXPECT_EQ(bucket_of(1), 1u);
  EXPECT_EQ(bucket_of(2), 2u);
  EXPECT_EQ(bucket_of(3), 2u);
  EXPECT_EQ(bucket_of(4), 3u);
  EXPECT_EQ(bucket_of(7), 3u);
  EXPECT_EQ(bucket_of(8), 4u);
  for (std::size_t b = 1; b < 64; ++b) {
    EXPECT_EQ(bucket_of(bucket_lower(b)), b) << b;
    EXPECT_EQ(bucket_of(bucket_upper(b)), b) << b;
    EXPECT_LE(bucket_lower(b), bucket_upper(b));
    EXPECT_EQ(bucket_lower(b + 1), bucket_upper(b) + 1);
  }
}

TEST(TelemetryHistogram, OverflowBucketAbsorbsTopValues) {
  EXPECT_EQ(bucket_of(std::uint64_t{1} << 63), 64u);
  EXPECT_EQ(bucket_of(~std::uint64_t{0}), 64u);
  EXPECT_EQ(bucket_upper(64), ~std::uint64_t{0});
  Histogram h;
  h.record(~std::uint64_t{0});
  h.record(std::uint64_t{1} << 63);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 2u);
  EXPECT_EQ(s.buckets[64], 2u);
  EXPECT_EQ(s.max_bound(), ~std::uint64_t{0});
}

TEST(TelemetryHistogram, EmptySnapshotIsInert) {
  const HistogramSnapshot s = Histogram{}.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.quantile(0.5), 0.0);
  EXPECT_EQ(s.min_bound(), 0u);
  EXPECT_EQ(s.max_bound(), 0u);
}

TEST(TelemetryHistogram, MeanAndQuantilesTrackTheStream) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.sum, 500500u);
  EXPECT_DOUBLE_EQ(s.mean(), 500.5);
  // Log buckets: quantiles are estimates, but must stay within the
  // bucket of the true quantile (factor-of-2 resolution).
  EXPECT_GE(s.quantile(0.5), 256.0);
  EXPECT_LE(s.quantile(0.5), 1023.0);
  EXPECT_GE(s.quantile(0.95), 512.0);
  EXPECT_LE(s.quantile(0.95), 1023.0);
  EXPECT_LE(s.quantile(0.0), s.quantile(1.0));
  EXPECT_EQ(s.min_bound(), 1u);
}

// ------------------------------------------------------- merge algebra --

TEST(TelemetryHistogram, MergeOfRandomPartitionIsExact) {
  // Record a stream whole; then partition it randomly into k histograms
  // and merge their snapshots in shuffled order.  Every field must be
  // bit-identical — the partition-invariant merge algebra.
  std::mt19937_64 rng(0x7e1e7u);
  for (std::size_t parts : {2u, 5u, 16u}) {
    std::vector<std::uint64_t> values;
    for (std::size_t i = 0; i < 5000; ++i) {
      // Mix of magnitudes so many buckets (incl. overflow) are hit.
      const int shift = static_cast<int>(rng() % 64);
      values.push_back(rng() >> shift);
    }
    Histogram whole;
    std::vector<Histogram> pieces(parts);
    for (std::uint64_t v : values) {
      whole.record(v);
      pieces[rng() % parts].record(v);
    }
    std::vector<HistogramSnapshot> snaps;
    snaps.reserve(parts);
    for (const Histogram& p : pieces) snaps.push_back(p.snapshot());
    std::shuffle(snaps.begin(), snaps.end(), rng);
    HistogramSnapshot merged;
    for (const HistogramSnapshot& s : snaps) merged.merge(s);
    const HistogramSnapshot expect = whole.snapshot();
    EXPECT_EQ(merged.count, expect.count);
    EXPECT_EQ(merged.sum, expect.sum);
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      ASSERT_EQ(merged.buckets[b], expect.buckets[b]) << "bucket " << b;
    }
    EXPECT_DOUBLE_EQ(merged.quantile(0.5), expect.quantile(0.5));
  }
}

TEST(TelemetryHistogram, ShardedRecordingEqualsSerialSnapshot) {
  // Concurrent recording spreads over shards; the snapshot must still be
  // the exact whole-stream histogram.
  Histogram concurrent;
  Histogram serial;
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 5000;
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      serial.record(t * 1000 + (i % 977));
    }
  }
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&concurrent, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        concurrent.record(t * 1000 + (i % 977));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const HistogramSnapshot a = concurrent.snapshot();
  const HistogramSnapshot b = serial.snapshot();
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    ASSERT_EQ(a.buckets[i], b.buckets[i]) << "bucket " << i;
  }
}

// ------------------------------------------------------------- registry --

TEST(TelemetryRegistry, LookupIsStableAndSnapshotSorted) {
  Registry reg;
  EXPECT_TRUE(reg.empty());
  Counter& c1 = reg.counter("z.last");
  Counter& c2 = reg.counter("a.first");
  EXPECT_EQ(&c1, &reg.counter("z.last"));  // stable address on re-lookup
  c1.add(1);
  c2.add(2);
  reg.gauge("mid.level").set(-5);
  reg.histogram("h.lat").record(9);
  EXPECT_FALSE(reg.empty());
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a.first");  // name-sorted
  EXPECT_EQ(snap.counters[1].first, "z.last");
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, -5);
  EXPECT_NE(snap.find_counter("z.last"), nullptr);
  EXPECT_EQ(*snap.find_counter("z.last"), 1u);
  EXPECT_EQ(snap.find_counter("missing"), nullptr);
  ASSERT_NE(snap.find_histogram("h.lat"), nullptr);
  EXPECT_EQ(snap.find_histogram("h.lat")->count, 1u);
  reg.clear();
  EXPECT_TRUE(reg.empty());
}

// --------------------------------------------------------------- export --

TEST(TelemetryExport, PromNamesAreSanitized) {
  EXPECT_EQ(prom_name("engine.slots"), "urn_engine_slots");
  EXPECT_EQ(prom_name("engine.slots", "_total"), "urn_engine_slots_total");
  EXPECT_EQ(prom_name("pool.worker0.busy.ns"), "urn_pool_worker0_busy_ns");
}

TEST(TelemetryExport, PrometheusExpositionIsWellFormed) {
  Registry reg;
  reg.counter("engine.slots").add(100);
  reg.gauge("engine.undecided").set(7);
  Histogram& h = reg.histogram("run.lat");
  h.record(1);
  h.record(3);
  h.record(100);
  const std::string text = to_prometheus(reg.snapshot());
  EXPECT_NE(text.find("# TYPE urn_engine_slots_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("urn_engine_slots_total 100"), std::string::npos);
  EXPECT_NE(text.find("# TYPE urn_engine_undecided gauge"),
            std::string::npos);
  EXPECT_NE(text.find("urn_engine_undecided 7"), std::string::npos);
  // Histogram: cumulative buckets ending in the mandatory +Inf == count.
  EXPECT_NE(text.find("# TYPE urn_run_lat histogram"), std::string::npos);
  EXPECT_NE(text.find("urn_run_lat_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("urn_run_lat_sum 104"), std::string::npos);
  EXPECT_NE(text.find("urn_run_lat_count 3"), std::string::npos);
  // Cumulative monotonicity: every bucket sample ≤ the count.
  std::size_t pos = 0;
  std::size_t buckets_seen = 0;
  double last = 0.0;
  while ((pos = text.find("urn_run_lat_bucket{", pos)) !=
         std::string::npos) {
    const std::size_t space = text.find(' ', pos);
    const double v = std::strtod(text.c_str() + space + 1, nullptr);
    EXPECT_GE(v, last);  // cumulative series never decreases
    last = v;
    ++buckets_seen;
    pos = space;
  }
  EXPECT_GE(buckets_seen, 2u);
  EXPECT_EQ(last, 3.0);
}

TEST(TelemetryExport, JsonlLineParsesAsBenchDoc) {
  Registry reg;
  reg.counter("engine.slots").add(12);
  reg.gauge("engine.undecided").set(-3);
  Histogram& h = reg.histogram("run.lat");
  for (std::uint64_t v = 0; v < 32; ++v) h.record(v);
  Snapshot snap = reg.snapshot();
  snap.seq = 5;
  snap.wall_ms = 1700000000123ull;
  snap.uptime_s = 2.5;
  const std::string line = to_jsonl_line(snap);
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');
  const json::Doc doc = json::parse(line);
  ASSERT_TRUE(doc.ok);
  const json::Entry* seq = doc.find("telemetry.seq");
  ASSERT_NE(seq, nullptr);
  EXPECT_EQ(seq->value, 5.0);
  EXPECT_EQ(doc.find("engine.slots")->value, 12.0);
  EXPECT_EQ(doc.find("engine.undecided")->value, -3.0);
  EXPECT_EQ(doc.find("run.lat.count")->value, 32.0);
  EXPECT_EQ(doc.find("run.lat.sum")->value, 496.0);
  // Non-empty buckets are re-mergeable downstream.
  EXPECT_NE(doc.find("run.lat.bucket0"), nullptr);
  EXPECT_NE(doc.find("run.lat.bucket5"), nullptr);
}

TEST(TelemetryExport, JsonlLineBytesArePinned) {
  // The exact line, byte for byte: key order (header, counters, gauges,
  // histograms), integer counts, %.6g means and quantiles, and only the
  // non-empty buckets.
  Registry reg;
  reg.counter("engine.slots").add(12);
  reg.counter("engine.transmissions").add(7);
  reg.gauge("engine.undecided").set(-3);
  Histogram& h = reg.histogram("run.lat");
  for (std::uint64_t v = 0; v < 32; ++v) h.record(v);
  reg.histogram("pool.chunk_wait.ns").record(1500);
  Snapshot snap = reg.snapshot();
  snap.seq = 5;
  snap.wall_ms = 1700000000123ull;
  snap.uptime_s = 2.5;
  EXPECT_EQ(
      to_jsonl_line(snap),
      "{\"telemetry.seq\":5,\"telemetry.wall_ms\":1700000000123,"
      "\"telemetry.uptime_s\":2.5,\"engine.slots\":12,"
      "\"engine.transmissions\":7,\"engine.undecided\":-3,"
      "\"pool.chunk_wait.ns.count\":1,\"pool.chunk_wait.ns.sum\":1500,"
      "\"pool.chunk_wait.ns.mean\":1500,\"pool.chunk_wait.ns.p50\":1024,"
      "\"pool.chunk_wait.ns.p95\":1024,\"pool.chunk_wait.ns.max\":2047,"
      "\"pool.chunk_wait.ns.bucket11\":1,\"run.lat.count\":32,"
      "\"run.lat.sum\":496,\"run.lat.mean\":15.5,\"run.lat.p50\":15,"
      "\"run.lat.p95\":29,\"run.lat.max\":31,\"run.lat.bucket0\":1,"
      "\"run.lat.bucket1\":1,\"run.lat.bucket2\":2,\"run.lat.bucket3\":4,"
      "\"run.lat.bucket4\":8,\"run.lat.bucket5\":16}\n");
}

TEST(TelemetrySnapshotter, StreamsAndFlushesFinalSnapshot) {
  const std::string path =
      testing::TempDir() + "telemetry_snap_stream.jsonl";
  Registry reg;
  Counter& work = reg.counter("test.work");
  {
    SnapshotterOptions opts;
    opts.jsonl_path = path;
    opts.interval_ms = 5;
    Snapshotter snap(reg, opts);
    work.add(41);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    work.add(1);
    snap.stop();  // must append a final snapshot with the current state
    EXPECT_GE(snap.snapshots_taken(), 1u);
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  // Last line = final state: test.work == 42, seq strictly increasing.
  const std::size_t last_nl = text.rfind('\n');
  ASSERT_NE(last_nl, std::string::npos);
  const std::size_t prev_nl = text.rfind('\n', last_nl - 1);
  const std::string last_line = text.substr(
      prev_nl == std::string::npos ? 0 : prev_nl + 1, last_nl);
  const json::Doc doc = json::parse(last_line);
  ASSERT_TRUE(doc.ok);
  EXPECT_EQ(doc.find("test.work")->value, 42.0);
  EXPECT_GE(doc.find("telemetry.seq")->value, 1.0);
}

// ------------------------------------------------------- engine probes --

core::Params small_params(std::size_t n, std::uint32_t delta) {
  return core::Params::practical(n, delta, 4, 8);
}

TEST(TelemetryEngineProbe, FinalSnapshotMatchesRunStatsFieldForField) {
  Rng rng(11);
  const auto net = graph::random_udg(60, 6.0, 1.6, rng);
  const auto delta = std::max(2u, net.graph.max_closed_degree());
  const auto params = small_params(net.graph.num_nodes(), delta);
  const auto schedule =
      radio::WakeSchedule::synchronous(net.graph.num_nodes());

  Registry reg;
  core::TraceOptions topts;
  topts.telemetry = &reg;
  const core::RunResult probed =
      core::run_coloring_traced(net.graph, params, schedule, 99, topts);
  const core::RunResult plain =
      core::run_coloring(net.graph, params, schedule, 99);

  // Bit-identity: the probe reads counts, never the RNG streams.
  EXPECT_EQ(probed.colors, plain.colors);
  EXPECT_EQ(probed.decision_slot, plain.decision_slot);
  EXPECT_EQ(probed.medium.transmissions, plain.medium.transmissions);
  EXPECT_EQ(probed.medium.slots_run, plain.medium.slots_run);

  // Field-for-field: registry totals == the run's own RunStats.
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(*snap.find_counter("engine.slots"),
            static_cast<std::uint64_t>(probed.medium.slots_run));
  EXPECT_EQ(*snap.find_counter("engine.transmissions"),
            probed.medium.transmissions);
  EXPECT_EQ(*snap.find_counter("engine.deliveries"),
            probed.medium.deliveries);
  EXPECT_EQ(*snap.find_counter("engine.collisions"),
            probed.medium.collisions);
  EXPECT_EQ(*snap.find_counter("engine.drops"), probed.medium.dropped);
  EXPECT_EQ(*snap.find_counter("engine.runs"), 1u);
  EXPECT_EQ(*snap.find_counter("engine.runs_completed"), 1u);

  std::uint64_t decided = 0;
  std::uint64_t wakes = 0;
  for (radio::Slot s : probed.decision_slot) {
    if (s >= 0) ++decided;
  }
  wakes = probed.wake_slot.size();
  EXPECT_EQ(*snap.find_counter("engine.decisions"), decided);
  EXPECT_EQ(*snap.find_counter("engine.wakes"), wakes);

  // The live gauge must drain to zero when the run retires.
  EXPECT_EQ(*snap.find_gauge("engine.undecided"), 0);

  // Decision-latency histogram: one sample per decided node, sum equal
  // to the run's total latency.
  const HistogramSnapshot* lat = snap.find_histogram("run.decision_latency");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, decided);
  std::uint64_t total_latency = 0;
  for (radio::Slot t : probed.latency) {
    total_latency += static_cast<std::uint64_t>(t);
  }
  EXPECT_EQ(lat->sum, total_latency);
}

TEST(TelemetryEngineProbe, AccumulatesAcrossRunsAndFastForwards) {
  // Two runs with a long dead wake gap: fast-forwarded slots must be
  // counted (engine.slots == Σ slots_run exactly), and engine.runs == 2.
  Rng rng(5);
  const auto net = graph::random_udg(40, 5.0, 1.6, rng);
  const auto delta = std::max(2u, net.graph.max_closed_degree());
  const auto params = small_params(net.graph.num_nodes(), delta);
  std::vector<radio::Slot> wake(net.graph.num_nodes(), 50000);
  const radio::WakeSchedule schedule(std::move(wake));

  Registry reg;
  core::TraceOptions topts;
  topts.telemetry = &reg;
  std::uint64_t expect_slots = 0;
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    const auto run = core::run_coloring_traced(net.graph, params, schedule,
                                               seed, topts);
    expect_slots += static_cast<std::uint64_t>(run.medium.slots_run);
    EXPECT_GT(run.medium.slots_run, 50000);  // the gap was simulated
  }
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(*snap.find_counter("engine.slots"), expect_slots);
  EXPECT_EQ(*snap.find_counter("engine.runs"), 2u);
  EXPECT_EQ(*snap.find_counter("engine.runs_completed"), 2u);
  EXPECT_EQ(*snap.find_gauge("engine.undecided"), 0);
}

TEST(TelemetryEngineProbe, LeaderElectionProbed) {
  Rng rng(21);
  const auto net = graph::random_udg(50, 6.0, 1.6, rng);
  const auto delta = std::max(2u, net.graph.max_closed_degree());
  const auto params = small_params(net.graph.num_nodes(), delta);
  const auto schedule =
      radio::WakeSchedule::synchronous(net.graph.num_nodes());
  Registry reg;
  core::TraceOptions topts;
  topts.telemetry = &reg;
  const auto probed =
      core::run_leader_election(net.graph, params, schedule, 7, topts);
  const auto plain =
      core::run_leader_election(net.graph, params, schedule, 7);
  EXPECT_EQ(probed.leaders, plain.leaders);
  EXPECT_EQ(probed.medium.slots_run, plain.medium.slots_run);
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(*snap.find_counter("engine.slots"),
            static_cast<std::uint64_t>(probed.medium.slots_run));
  // run() brackets the stage-1 run once and times its phases.
  EXPECT_EQ(*snap.find_counter("engine.runs"), 1u);
  EXPECT_EQ(*snap.find_counter("engine.runs_completed"), 1u);
  EXPECT_GT(*snap.find_counter(layer_counter(kLayerProtocol)), 0u);
  EXPECT_EQ(*snap.find_gauge("engine.undecided"), 0);
  // One cover latency per covered node, recorded once.
  ASSERT_TRUE(probed.all_covered);
  const HistogramSnapshot* latency =
      snap.find_histogram("run.decision_latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, net.graph.num_nodes());
}

// The misaligned engine shares the probe seam; drive it with a scripted
// protocol (tx in fixed local slots) and check stats fidelity.
struct HalfScript {
  radio::NodeId id = graph::kInvalidNode;
  radio::Slot tx_at = -1;
  void on_wake(radio::SlotContext&) {}
  std::optional<radio::Message> on_slot(radio::SlotContext& ctx) {
    if (ctx.now == tx_at) {
      return radio::make_decided(id, static_cast<int>(ctx.now));
    }
    return std::nullopt;
  }
  void on_receive(radio::SlotContext&, const radio::Message&) {}
  [[nodiscard]] bool decided() const { return false; }
};

TEST(TelemetryEngineProbe, MisalignedEngineMatchesStats) {
  const graph::Graph g = graph::path_graph(3);
  std::vector<HalfScript> nodes(3);
  for (radio::NodeId v = 0; v < 3; ++v) {
    nodes[v].id = v;
    nodes[v].tx_at = static_cast<radio::Slot>(2 + v);
  }
  Registry reg;
  EngineProbe probe(reg);
  radio::MisalignedEngine<HalfScript, obs::NullSink, EngineProbe> eng(
      g, radio::WakeSchedule::synchronous(3), std::move(nodes), {0, 1, 0},
      1);
  eng.set_telemetry(&probe);
  const radio::RunStats stats = eng.run(64);
  probe.end_run();
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(*snap.find_counter("engine.slots"),
            static_cast<std::uint64_t>(stats.slots_run));
  EXPECT_EQ(*snap.find_counter("engine.transmissions"),
            stats.transmissions);
  EXPECT_EQ(*snap.find_counter("engine.deliveries"), stats.deliveries);
  EXPECT_EQ(*snap.find_counter("engine.collisions"), stats.collisions);
  EXPECT_EQ(*snap.find_gauge("engine.undecided"), 0);
}

// --------------------------------------------------------- pool probing --

TEST(TelemetryPoolProbe, CountsEveryChunkOnce) {
  for (std::size_t jobs : {1u, 4u}) {
    Registry reg;
    PoolProbe probe(reg, jobs);
    exec::TrialPool pool(jobs);
    std::atomic<std::uint64_t> hits{0};
    pool.run(13, [&hits](std::size_t) { ++hits; }, &probe);
    EXPECT_EQ(hits.load(), 13u);
    const Snapshot snap = reg.snapshot();
    EXPECT_EQ(*snap.find_counter("pool.chunks"), 13u) << "jobs=" << jobs;
    EXPECT_EQ(*snap.find_gauge("pool.workers"),
              static_cast<std::int64_t>(jobs));
    // Per-worker chunk counters partition the total.
    std::uint64_t per_worker_total = 0;
    for (std::size_t w = 0; w < jobs; ++w) {
      const std::uint64_t* c = snap.find_counter(
          "pool.worker" + std::to_string(w) + ".chunks");
      if (c != nullptr) per_worker_total += *c;
    }
    EXPECT_EQ(per_worker_total, 13u) << "jobs=" << jobs;
    const HistogramSnapshot* wait =
        snap.find_histogram("pool.chunk_wait.ns");
    ASSERT_NE(wait, nullptr);
    EXPECT_EQ(wait->count, jobs);  // one drain report per worker
  }
}

// ---------------------------------------- end-to-end with the trial loop --

TEST(TelemetryTrialLoop, TelemetryNeverPerturbsAggregates) {
  Rng rng(31);
  const auto net = graph::random_udg(48, 5.5, 1.6, rng);
  const auto delta = std::max(2u, net.graph.max_closed_degree());
  const auto params = small_params(net.graph.num_nodes(), delta);
  const auto schedules =
      analysis::uniform_schedule(net.graph.num_nodes(), 64);

  const analysis::CoreAggregate plain =
      analysis::run_core_trials(net.graph, params, schedules, 6, 77);

  Registry reg;
  analysis::TrialExecOptions exec;
  exec.jobs = 3;
  exec.telemetry = &reg;
  const analysis::CoreAggregate probed = analysis::run_core_trials(
      net.graph, params, schedules, 6, 77, exec);

  EXPECT_EQ(probed.valid, plain.valid);
  EXPECT_EQ(probed.max_color.max(), plain.max_color.max());
  EXPECT_EQ(probed.slots_run.mean(), plain.slots_run.mean());
  EXPECT_EQ(probed.mean_latency.mean(), plain.mean_latency.mean());

  // Registry totals match the aggregate: Σ slots_run over trials.
  const Snapshot snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(
      static_cast<double>(*snap.find_counter("engine.slots")),
      probed.slots_run.mean() *
          static_cast<double>(probed.slots_run.count()));
  EXPECT_EQ(*snap.find_counter("engine.runs"), 6u);
  EXPECT_EQ(*snap.find_gauge("engine.undecided"), 0);
  // The pool probe reported: chunk counts cover every trial chunk.
  EXPECT_NE(snap.find_counter("pool.chunks"), nullptr);
  EXPECT_EQ(*snap.find_gauge("pool.workers"), 3);
}

// The probe's layer clock: a probed run times its four phases within
// the call's wall time, and a parallel sweep's concurrent probes add
// their phase times into the one registry without changing results.
TEST(TelemetryTrialLoop, LayerClockTimesFourPhasesPerProbe) {
  Rng rng(41);
  const auto net = graph::random_udg(64, 5.5, 1.6, rng);
  const std::size_t n = net.graph.num_nodes();
  const auto params =
      small_params(n, std::max(2u, net.graph.max_closed_degree()));
  const auto layer_total = [](const Snapshot& snap) {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < kEngineLayers.size(); ++i) {
      const std::uint64_t* ns = snap.find_counter(layer_counter(i));
      EXPECT_NE(ns, nullptr) << layer_counter(i);
      if (ns != nullptr) total += *ns;
    }
    return total;
  };
  const auto elapsed_ns = [](std::chrono::steady_clock::time_point t0) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  };

  {
    Registry reg;
    core::TraceOptions topts;
    topts.telemetry = &reg;
    const auto t0 = std::chrono::steady_clock::now();
    const core::RunResult run = core::run_coloring_traced(
        net.graph, params, radio::WakeSchedule::synchronous(n), 9, topts);
    const std::uint64_t wall_ns = elapsed_ns(t0);
    ASSERT_TRUE(run.all_decided);
    const Snapshot snap = reg.snapshot();
    ASSERT_NE(snap.find_counter("engine.layer.protocol.ns"), nullptr);
    EXPECT_GT(*snap.find_counter("engine.layer.protocol.ns"), 0u);
    EXPECT_LE(layer_total(snap), wall_ns);
  }

  const auto schedules = analysis::uniform_schedule(n, 64);
  analysis::TrialExecOptions exec;
  exec.jobs = 4;
  const analysis::CoreAggregate plain =
      analysis::run_core_trials(net.graph, params, schedules, 12, 5, exec);
  Registry reg;
  exec.telemetry = &reg;
  const analysis::CoreAggregate probed =
      analysis::run_core_trials(net.graph, params, schedules, 12, 5, exec);
  EXPECT_EQ(probed.valid, plain.valid);
  EXPECT_EQ(probed.completed, plain.completed);
  EXPECT_EQ(probed.max_color.values(), plain.max_color.values());
  EXPECT_EQ(probed.slots_run.values(), plain.slots_run.values());
  EXPECT_EQ(probed.mean_latency.values(), plain.mean_latency.values());
  EXPECT_EQ(probed.max_latency.values(), plain.max_latency.values());

  // Every probe's phases ran inside a pool chunk, so together they stay
  // within the workers' summed busy time.
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(*snap.find_counter("engine.runs"), 12u);
  EXPECT_GT(*snap.find_counter("engine.layer.protocol.ns"), 0u);
  EXPECT_LE(layer_total(snap), *snap.find_counter("pool.busy.ns"));
}

// ----------------------------------- shared-registry concurrency (TSan) --

// Hammer the live telemetry registry's type and a profile-style registry
// (the same type, as obs::profile_registry is) from trial pool workers
// simultaneously — the run most likely to surface a data race under
// `URN_SANITIZE=thread` (the CI tsan leg runs this label).
TEST(TelemetryThreading, PoolWorkersHammerSharedRegistries) {
  Registry reg;
  Registry prof;
  Counter& telemetry_hits = reg.counter("hammer.hits");
  Histogram& hist = reg.histogram("hammer.values");
  Counter& prof_hits = prof.counter("prof.hits");
  constexpr std::size_t kChunks = 64;
  constexpr std::uint64_t kPerChunk = 500;
  exec::TrialPool pool(8);
  pool.run(kChunks, [&](std::size_t chunk) {
    for (std::uint64_t i = 0; i < kPerChunk; ++i) {
      telemetry_hits.add(1);
      hist.record(chunk * kPerChunk + i);
      prof_hits.add(1);
      // Lookup-or-create races on the registry maps as well, including
      // the two counters a ProfileScope adds on destruction.
      reg.counter("hammer.chunk" + std::to_string(chunk % 4)).add(1);
      prof.counter("prof.chunk" + std::to_string(chunk % 4)).add(1);
      if (i % 100 == 0) ProfileScope scope("prof.scope", &prof);
    }
  });
  EXPECT_EQ(telemetry_hits.value(), kChunks * kPerChunk);
  EXPECT_EQ(hist.snapshot().count, kChunks * kPerChunk);
  EXPECT_EQ(prof_hits.value(), kChunks * kPerChunk);
  EXPECT_EQ(prof.counter("prof.scope.calls").value(),
            kChunks * kPerChunk / 100);
  std::uint64_t spread = 0;
  std::uint64_t prof_spread = 0;
  for (int i = 0; i < 4; ++i) {
    spread += reg.counter("hammer.chunk" + std::to_string(i)).value();
    prof_spread += prof.counter("prof.chunk" + std::to_string(i)).value();
  }
  EXPECT_EQ(spread, kChunks * kPerChunk);
  EXPECT_EQ(prof_spread, kChunks * kPerChunk);
}

// ------------------------------------------------ differ telemetry skip --

TEST(TelemetryDiffer, TelemetryKeysAreSkippedByDefault) {
  const json::Doc base = json::parse(
      "{\"m2.cell.slots_run\": 100, \"telemetry.engine.slots\": 5,"
      " \"telemetry.pool.busy.ns\": 999}");
  const json::Doc fresh = json::parse(
      "{\"m2.cell.slots_run\": 100, \"telemetry.engine.slots\": 7,"
      " \"telemetry.pool.busy.ns\": 123456}");
  ASSERT_TRUE(base.ok);
  ASSERT_TRUE(fresh.ok);
  const DiffReport report = diff_bench(base, fresh);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.compared, 1u);
  EXPECT_EQ(report.skipped, 2u);
}

TEST(TelemetryDiffer, MissingTelemetryKeyIsNotARegression) {
  // A telemetry-enabled baseline diffed against a telemetry-off fresh
  // run: the telemetry keys vanish, which must not trip the gate.
  const json::Doc base = json::parse(
      "{\"m2.cell.slots_run\": 100, \"telemetry.engine.slots\": 5}");
  const json::Doc fresh = json::parse("{\"m2.cell.slots_run\": 100}");
  const DiffReport report = diff_bench(base, fresh);
  EXPECT_TRUE(report.ok());
}

TEST(TelemetryDiffer, NonTelemetryDriftStillFails) {
  const json::Doc base = json::parse(
      "{\"m2.cell.slots_run\": 100, \"telemetry.engine.slots\": 5}");
  const json::Doc fresh = json::parse(
      "{\"m2.cell.slots_run\": 101, \"telemetry.engine.slots\": 5}");
  const DiffReport report = diff_bench(base, fresh);
  ASSERT_EQ(report.regressions.size(), 1u);
  EXPECT_EQ(report.regressions[0].key, "m2.cell.slots_run");
}

}  // namespace
}  // namespace urn::obs::telemetry

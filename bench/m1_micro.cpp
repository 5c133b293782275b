/// M1 — micro-benchmarks of the substrate (google-benchmark): simulator
/// throughput, graph generation, κ computation, χ(P) evaluation, and the
/// baselines' inner loops.  These justify the experiment sizes used in
/// E1–E9 (the simulator sustains tens of millions of node-slots/s).

#include <benchmark/benchmark.h>

#include <cstdio>

#include "baselines/message_passing.hpp"
#include "core/chi.hpp"
#include "core/protocol.hpp"
#include "core/runner.hpp"
#include "graph/coloring.hpp"
#include "graph/generators.hpp"
#include "graph/independence.hpp"
#include "obs/bintrace.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/telemetry.hpp"
#include "support/rng.hpp"

namespace {

using namespace urn;

void BM_RandomUdgGeneration(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const double side = 1.5 * std::sqrt(static_cast<double>(n) / 2.8);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng(seed++);
    auto net = graph::random_udg(n, side, 1.5, rng);
    benchmark::DoNotOptimize(net.graph.num_edges());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RandomUdgGeneration)->Arg(256)->Arg(1024)->Arg(4096);

/// Exact κ₂ over every node of an n-node UDG in a side × side square.
void BM_Kappa2Exact(benchmark::State& state, double side, double radius) {
  Rng rng(2);
  const auto net = graph::random_udg(
      static_cast<std::size_t>(state.range(0)), side, radius, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::kappa2(net.graph).value);
  }
}
void BM_Kappa2Exact(benchmark::State& state) {
  BM_Kappa2Exact(state, 7.0, 1.4);
}
BENCHMARK(BM_Kappa2Exact)->Arg(64)->Arg(128);
// perfbench's e2_sweep deployment shape: n = 256, side 9.5, radius 1.5.
BENCHMARK_CAPTURE(BM_Kappa2Exact, e2_sweep, 9.5, 1.5)->Arg(256);

void BM_Chi(benchmark::State& state) {
  Rng rng(3);
  std::vector<std::int64_t> counters;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    counters.push_back(rng.range(-500, 500));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::chi(counters, 25));
  }
}
BENCHMARK(BM_Chi)->Arg(4)->Arg(16)->Arg(64);

void BM_ProtocolSlots(benchmark::State& state) {
  // Whole-protocol throughput in node-slots per second.
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  const double side = 1.5 * std::sqrt(static_cast<double>(n) / 2.8);
  const auto net = graph::random_udg(n, side, 1.5, rng);
  const auto delta = std::max(2u, net.graph.max_closed_degree());
  const auto params = core::Params::practical(n, delta, 5, 12);
  std::uint64_t seed = 10;
  std::int64_t node_slots = 0;
  for (auto _ : state) {
    const auto run = core::run_coloring(
        net.graph, params, radio::WakeSchedule::synchronous(n), seed++);
    benchmark::DoNotOptimize(run.max_color);
    node_slots += static_cast<std::int64_t>(run.medium.slots_run) *
                  static_cast<std::int64_t>(n);
  }
  state.SetItemsProcessed(node_slots);
}
BENCHMARK(BM_ProtocolSlots)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_ProtocolSlotsTraced(benchmark::State& state) {
  // Same workload as BM_ProtocolSlots but with a live MetricsSink
  // (window 16) attached — the cost of observability when it is ON.
  // Compare against BM_ProtocolSlots, which instantiates the engine with
  // NullSink: that pair quantifies the zero-overhead claim (NullSink is
  // compiled out) and the marginal cost of live metrics.
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  const double side = 1.5 * std::sqrt(static_cast<double>(n) / 2.8);
  const auto net = graph::random_udg(n, side, 1.5, rng);
  const auto delta = std::max(2u, net.graph.max_closed_degree());
  const auto params = core::Params::practical(n, delta, 5, 12);
  std::uint64_t seed = 10;
  std::int64_t node_slots = 0;
  core::TraceOptions trace;
  trace.metrics = true;
  trace.metrics_window = 16;
  for (auto _ : state) {
    const auto run = core::run_coloring_traced(
        net.graph, params, radio::WakeSchedule::synchronous(n), seed++,
        trace);
    benchmark::DoNotOptimize(run.series->size());
    node_slots += static_cast<std::int64_t>(run.medium.slots_run) *
                  static_cast<std::int64_t>(n);
  }
  state.SetItemsProcessed(node_slots);
}
BENCHMARK(BM_ProtocolSlotsTraced)
    ->Arg(128)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

// ---- Data-layout family ---------------------------------------------------
// The SoA engine-core numbers: the batched draw loop replaced per-draw
// double conversion with one integer threshold compare, and the per-slot
// decided/awake scans walk a one-byte-per-node klass array instead of
// scattered node objects.  These pin both effects in isolation; m2's
// whole-run rates show what they buy end to end.

void BM_BernoulliPerDraw(benchmark::State& state) {
  // Pre-SoA style: one uint64→double conversion + double compare per
  // node per slot (p = p_active at Δ=101, κ₂=12 — the m2 gate cell).
  const auto n = static_cast<std::size_t>(state.range(0));
  const double p = 1.0 / 1212.0;
  std::vector<Rng> rngs;
  rngs.reserve(n);
  for (std::size_t v = 0; v < n; ++v) rngs.emplace_back(mix_seed(7, v));
  std::uint64_t hits = 0;
  for (auto _ : state) {
    for (std::size_t v = 0; v < n; ++v) {
      if (rngs[v].uniform() < p) ++hits;
    }
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BernoulliPerDraw)->Arg(2048);

void BM_BernoulliBatch(benchmark::State& state) {
  // The batch_slots draw: raw 53-bit mantissa against a precomputed
  // integer threshold — bit-identical accept/reject to uniform() < p
  // (proof in core::ColoringNode::batch_slots), no int→double convert.
  const auto n = static_cast<std::size_t>(state.range(0));
  const double p = 1.0 / 1212.0;
  const auto tx_cut = static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
  std::vector<Rng> rngs;
  rngs.reserve(n);
  for (std::size_t v = 0; v < n; ++v) rngs.emplace_back(mix_seed(7, v));
  std::uint64_t hits = 0;
  for (auto _ : state) {
    for (std::size_t v = 0; v < n; ++v) {
      if ((rngs[v]() >> 11) < tx_cut) ++hits;
    }
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BernoulliBatch)->Arg(2048);

/// Stand-in for the pre-SoA node object: the hot fields the old decided
/// scan loaded, padded by the cold payload (queue, competitor lists,
/// stats, transition log) that rode along in every cache line fetch.
struct AosScanNode {
  std::uint8_t phase = 0;
  bool active = false;
  std::int64_t counter = 0;
  std::int64_t passive_remaining = 0;
  std::int32_t color_index = 0;
  std::byte cold[160]{};
};

void BM_AwakeScanAoS(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<AosScanNode> nodes(n);
  for (std::size_t v = 0; v < n; ++v) {
    nodes[v].phase = v % 5 == 0 ? 1 : 2;  // 20% undecided, like late-run
  }
  std::uint64_t decided = 0;
  for (auto _ : state) {
    for (std::size_t v = 0; v < n; ++v) {
      if (nodes[v].phase == 2) ++decided;
    }
  }
  benchmark::DoNotOptimize(decided);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_AwakeScanAoS)->Arg(2048)->Arg(100000);

void BM_AwakeScanSoA(benchmark::State& state) {
  // Same scan over the engine-owned hot block: one byte per node.
  const auto n = static_cast<std::size_t>(state.range(0));
  core::ColoringHot hot(n);
  for (std::size_t v = 0; v < n; ++v) {
    hot.klass[v] = v % 5 == 0 ? core::ColoringHot::kCount
                              : core::ColoringHot::kDecidedOther;
  }
  std::uint64_t decided = 0;
  for (auto _ : state) {
    for (std::size_t v = 0; v < n; ++v) {
      if (hot.decided(static_cast<graph::NodeId>(v))) ++decided;
    }
  }
  benchmark::DoNotOptimize(decided);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_AwakeScanSoA)->Arg(2048)->Arg(100000);

void BM_EventSinkRecord(benchmark::State& state) {
  // Raw sink throughput: how fast can a RingSink absorb events.
  obs::RingSink ring(1 << 12);
  std::int64_t recorded = 0;
  for (auto _ : state) {
    for (obs::Slot s = 0; s < 1024; ++s) {
      ring.record(obs::Event::transmit(
          s, static_cast<obs::NodeId>(s & 63),
          static_cast<std::uint8_t>(obs::MsgCode::kCompete), /*color=*/0,
          /*counter=*/s));
    }
    recorded += 1024;
    benchmark::DoNotOptimize(ring.recorded());
  }
  state.SetItemsProcessed(recorded);
}
BENCHMARK(BM_EventSinkRecord);

// ---- trace-capture overhead -----------------------------------------------
// The BM_Sink* family drives the same synthetic event mix through every
// sink so items/s compare directly: NullSink is the compiled-out floor,
// MemorySink the in-memory ceiling, and JsonlSink vs BinSink is the
// serialization gap that motivates the binary format (the PR gate cites
// BinSink >= 5x JsonlSink events/s from these numbers).

/// One protocol-shaped event per call, cycling through the kinds whose
/// serializations differ most (transmit with value, delivery, phase).
obs::Event synthetic_event(obs::Slot s) {
  const auto node = static_cast<obs::NodeId>(s & 63);
  switch (s % 3) {
    case 0:
      return obs::Event::transmit(
          s, node, static_cast<std::uint8_t>(obs::MsgCode::kCompete),
          /*color=*/static_cast<std::int32_t>(s & 7), /*counter=*/s);
    case 1:
      return obs::Event::delivery(
          s, node, static_cast<obs::NodeId>((s + 1) & 63),
          static_cast<std::uint8_t>(obs::MsgCode::kAssign),
          /*color=*/static_cast<std::int32_t>(s & 7));
    default:
      return obs::Event::phase_change(
          s, node, static_cast<std::uint8_t>(obs::PhaseCode::kVerify),
          /*color=*/static_cast<std::int32_t>(s & 7));
  }
}

/// The shared 1024-event batch, built once outside the timed region so
/// items/s measures sink cost alone, not event construction.
const std::vector<obs::Event>& synthetic_batch() {
  static const std::vector<obs::Event> batch = [] {
    std::vector<obs::Event> v;
    for (obs::Slot s = 0; s < 1024; ++s) v.push_back(synthetic_event(s));
    return v;
  }();
  return batch;
}

template <typename Sink>
void sink_throughput(benchmark::State& state, Sink& sink) {
  const auto& batch = synthetic_batch();
  std::int64_t recorded = 0;
  for (auto _ : state) {
    for (const auto& e : batch) sink.record(e);
    recorded += static_cast<std::int64_t>(batch.size());
  }
  sink.flush();
  state.SetItemsProcessed(recorded);
}

void BM_SinkNull(benchmark::State& state) {
  obs::NullSink sink;
  sink_throughput(state, sink);
}
BENCHMARK(BM_SinkNull);

void BM_SinkMemory(benchmark::State& state) {
  obs::MemorySink sink;
  sink_throughput(state, sink);
  benchmark::DoNotOptimize(sink.size());
}
BENCHMARK(BM_SinkMemory);

void BM_SinkJsonl(benchmark::State& state) {
  obs::JsonlSink sink("m1_sink_bench.jsonl");
  sink_throughput(state, sink);
  benchmark::DoNotOptimize(sink.written());
  std::remove("m1_sink_bench.jsonl");
}
BENCHMARK(BM_SinkJsonl);

void BM_SinkBin(benchmark::State& state) {
  obs::BinSink sink("m1_sink_bench.bin");
  sink_throughput(state, sink);
  benchmark::DoNotOptimize(sink.written());
  std::remove("m1_sink_bench.bin");
}
BENCHMARK(BM_SinkBin);

void BM_SinkBinRing(benchmark::State& state) {
  // Flight-recorder mode: bounded memory, no I/O until flush.
  obs::BinSink sink("m1_sink_bench_ring.bin", /*ring_capacity=*/1 << 12);
  sink_throughput(state, sink);
  benchmark::DoNotOptimize(sink.written());
  std::remove("m1_sink_bench_ring.bin");
}
BENCHMARK(BM_SinkBinRing);

void BM_GreedyColoring(benchmark::State& state) {
  Rng rng(5);
  const auto net = graph::random_udg(
      static_cast<std::size_t>(state.range(0)), 12.0, 1.4, rng);
  for (auto _ : state) {
    auto colors = graph::greedy_coloring(net.graph);
    benchmark::DoNotOptimize(graph::max_color(colors));
  }
}
BENCHMARK(BM_GreedyColoring)->Arg(1024);

void BM_LubyMis(benchmark::State& state) {
  Rng grng(6);
  const auto net = graph::random_udg(
      static_cast<std::size_t>(state.range(0)), 12.0, 1.4, grng);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng(seed++);
    auto mis = baselines::luby_mis(net.graph, rng);
    benchmark::DoNotOptimize(mis.mis.size());
  }
}
BENCHMARK(BM_LubyMis)->Arg(1024);

void BM_MpColoring(benchmark::State& state) {
  Rng grng(7);
  const auto net = graph::random_udg(
      static_cast<std::size_t>(state.range(0)), 12.0, 1.4, grng);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng(seed++);
    auto r = baselines::mp_random_coloring(net.graph, rng);
    benchmark::DoNotOptimize(r.rounds);
  }
}
BENCHMARK(BM_MpColoring)->Arg(1024);

// --- Telemetry family -----------------------------------------------------
//
// The zero-overhead claim has two halves.  Disabled: BM_ProtocolSlots
// runs the engine with the default NullEngineProbe — the probe hooks are
// `if constexpr`-eliminated, so BM_TelemetryProtocolProbed vs
// BM_ProtocolSlots is the *entire* cost of turning telemetry on, and
// there is no disabled-path cost left to measure.  Enabled: the
// primitives below must stay in the low-ns range (one relaxed fetch_add
// per counter hit, three per histogram record).

void BM_TelemetryCounterAdd(benchmark::State& state) {
  obs::telemetry::Counter counter;
  std::uint64_t i = 0;
  for (auto _ : state) {
    counter.add(++i & 7);
  }
  benchmark::DoNotOptimize(counter.value());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TelemetryCounterAdd);

void BM_TelemetryGaugeSet(benchmark::State& state) {
  obs::telemetry::Gauge gauge;
  std::int64_t i = 0;
  for (auto _ : state) {
    gauge.set(++i & 1023);
  }
  benchmark::DoNotOptimize(gauge.value());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TelemetryGaugeSet);

void BM_TelemetryHistogramRecord(benchmark::State& state) {
  obs::telemetry::Histogram hist;
  std::uint64_t i = 0;
  for (auto _ : state) {
    hist.record(++i & 0xffff);
  }
  benchmark::DoNotOptimize(hist.snapshot().count);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TelemetryHistogramRecord);

void BM_TelemetrySnapshot(benchmark::State& state) {
  // Reading the registry (what the background snapshotter pays per
  // interval): `range(0)` counters plus one histogram.
  obs::telemetry::Registry registry;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    registry.counter("bench.counter" + std::to_string(i)).add(7);
  }
  obs::telemetry::Histogram& hist = registry.histogram("bench.hist");
  for (std::uint64_t v = 0; v < 4096; ++v) hist.record(v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.snapshot().counters.size());
  }
}
BENCHMARK(BM_TelemetrySnapshot)->Arg(16)->Arg(64);

void BM_TelemetryProtocolProbed(benchmark::State& state) {
  // Whole-protocol throughput with a live engine probe — compare
  // against BM_ProtocolSlots (identical workload, probe compiled out).
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  const double side = 1.5 * std::sqrt(static_cast<double>(n) / 2.8);
  const auto net = graph::random_udg(n, side, 1.5, rng);
  const auto delta = std::max(2u, net.graph.max_closed_degree());
  const auto params = core::Params::practical(n, delta, 5, 12);
  obs::telemetry::Registry registry;
  core::TraceOptions trace;
  trace.telemetry = &registry;
  std::uint64_t seed = 10;
  std::int64_t node_slots = 0;
  for (auto _ : state) {
    const auto run = core::run_coloring_traced(
        net.graph, params, radio::WakeSchedule::synchronous(n), seed++,
        trace);
    benchmark::DoNotOptimize(run.max_color);
    node_slots += static_cast<std::int64_t>(run.medium.slots_run) *
                  static_cast<std::int64_t>(n);
  }
  state.SetItemsProcessed(node_slots);
}
BENCHMARK(BM_TelemetryProtocolProbed)
    ->Arg(128)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

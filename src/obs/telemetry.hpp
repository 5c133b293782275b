/// \file telemetry.hpp
/// \brief Live telemetry: sharded counters, gauges, log-bucketed mergeable
///        histograms, periodic snapshots, and Prometheus / JSONL export.
///
/// The trace pipeline (sink.hpp / bintrace.hpp) answers "what happened,
/// event by event" after a run ends; this layer answers "what is happening
/// *right now*" while a multi-minute sweep or a long-lived service is
/// executing.  It is deliberately shaped like a production metrics stack:
///
///  * `Counter` — monotonic, **per-thread sharded**: `add()` is one relaxed
///    `fetch_add` on a cache-line-private shard, so trial-pool workers
///    never contend; `value()` sums the shards.  Counter sums commute, so
///    sharding is invisible to readers.
///  * `Gauge` — a settable signed level (live undecided population, worker
///    count); single atomic, updated at event granularity, not per node.
///  * `Histogram` — log₂-bucketed value distribution (decision latencies,
///    wait times), sharded like counters.  Snapshots of disjoint recording
///    shards **merge by bucket-wise addition**: merging any partition of a
///    sample stream, in any order, is bit-identical to recording the whole
///    stream into one histogram — the same partition-invariant algebra the
///    trial executor relies on for `Samples` (test-pinned).
///  * `Registry` — the named-metric namespace, and the repo's one
///    registry type (the profile counters of profile.hpp are an instance
///    of it).  Metric objects have stable addresses for the process
///    lifetime of the registry, so probes resolve names once and keep raw
///    pointers.
///  * `Snapshot` — a point-in-time reading of every metric, and the unit
///    of export: Prometheus text exposition (`write_prometheus_file`) and
///    an append-only flat-JSON line (`append_jsonl_file`, the stream
///    `tools/urn_top` tails).
///  * `Snapshotter` — a background thread sampling a registry every
///    `interval_ms` and exporting each snapshot; `stop()` (or the
///    destructor) emits one final snapshot, so the last JSONL line of a
///    completed run is the run's final state.
///
/// ## Zero overhead when disabled
///
/// Hot layers are instrumented through probe types templated into the
/// engines exactly like `obs::NullSink`: the default `NullEngineProbe` has
/// `kEnabled == false` and every instrumentation site sits behind
/// `if constexpr`, so the untraced hot loop is byte-for-byte the
/// uninstrumented loop.  Enabled probes aggregate **per slot**, not per
/// node: one `on_slot` call issues a handful of relaxed sharded adds, and
/// the engine probe's layer clock reads `steady_clock` five times per
/// tick.  m1_micro's `BM_TelemetryProtocolProbed` vs `BM_ProtocolSlots`
/// (the same whole run with and without a probe) is the enabled cost.
///
/// Metric naming: dotted lowercase paths (`engine.slots`,
/// `run.decision_latency`), wall-clock totals suffixed `.ns`.  Exported
/// Prometheus names are `urn_` + the path with non-alphanumerics mapped to
/// `_` (counters additionally get `_total`), e.g. `engine.slots` →
/// `urn_engine_slots_total`.

#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <condition_variable>

namespace urn::obs::telemetry {

/// Shard fan-out for counters and histograms (power of two).  Threads are
/// assigned shards round-robin on first use; with the trial pool's worker
/// counts this keeps every worker on its own cache line.
constexpr std::size_t kShards = 16;

/// The calling thread's shard index (stable for the thread's lifetime).
[[nodiscard]] inline std::size_t shard_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t idx =
      next.fetch_add(1, std::memory_order_relaxed) & (kShards - 1);
  return idx;
}

/// Monotonic sharded counter; see the file comment.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  /// Lock-free: one relaxed fetch_add on the calling thread's shard.
  void add(std::uint64_t delta) {
    shards_[shard_index()].v.fetch_add(delta, std::memory_order_relaxed);
  }
  /// Explicit-shard add (partition tests; never needed by instrumentation).
  void add_to_shard(std::size_t shard, std::uint64_t delta) {
    shards_[shard & (kShards - 1)].v.fetch_add(delta,
                                               std::memory_order_relaxed);
  }
  /// Sum over all shards (sums commute, so this is exact at quiescence
  /// and a consistent-enough sample while writers run).
  [[nodiscard]] std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Shard, kShards> shards_;
};

/// Signed level metric (single atomic; updated at event granularity).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t delta) {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Number of log₂ buckets: bucket `b` holds values whose bit width is `b`,
/// i.e. bucket 0 = {0} and bucket b = [2^(b−1), 2^b − 1] for b ≥ 1; the
/// top bucket (b = 64) absorbs everything from 2^63 up — the overflow
/// bucket, which can never be exceeded by a uint64 value.
constexpr std::size_t kHistogramBuckets = 65;

/// Lower edge of bucket `b` (inclusive).
[[nodiscard]] constexpr std::uint64_t bucket_lower(std::size_t b) {
  return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
}
/// Upper edge of bucket `b` (inclusive).
[[nodiscard]] constexpr std::uint64_t bucket_upper(std::size_t b) {
  if (b == 0) return 0;
  if (b >= 64) return ~std::uint64_t{0};
  return (std::uint64_t{1} << b) - 1;
}
/// Bucket index of a value (its bit width).
[[nodiscard]] constexpr std::size_t bucket_of(std::uint64_t v) {
  return static_cast<std::size_t>(std::bit_width(v));
}

/// A point-in-time reading of one histogram.  This is the *mergeable*
/// form: every field is a sum, so `merge` over any partition of the
/// recorded values, in any order, reproduces the whole-stream snapshot
/// exactly (bucket counts, count and sum are integers — no rounding).
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  /// Bucket-wise addition — the partition-invariant merge.
  void merge(const HistogramSnapshot& other) {
    count += other.count;
    sum += other.sum;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      buckets[b] += other.buckets[b];
    }
  }

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Quantile estimate (q in [0, 1]): linear interpolation inside the
  /// bucket containing the q-th recorded value; exact for bucket edges.
  [[nodiscard]] double quantile(double q) const;
  /// Lower edge of the lowest non-empty bucket (0 when empty).
  [[nodiscard]] std::uint64_t min_bound() const;
  /// Upper edge of the highest non-empty bucket (0 when empty).
  [[nodiscard]] std::uint64_t max_bound() const;
};

/// Sharded log-bucketed histogram; see the file comment.
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Lock-free: three relaxed fetch_adds on the calling thread's shard.
  void record(std::uint64_t value) {
    Shard& s = shards_[shard_index()];
    s.buckets[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(value, std::memory_order_relaxed);
  }

  [[nodiscard]] HistogramSnapshot snapshot() const {
    HistogramSnapshot out;
    for (const Shard& s : shards_) {
      out.count += s.count.load(std::memory_order_relaxed);
      out.sum += s.sum.load(std::memory_order_relaxed);
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        out.buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
      }
    }
    return out;
  }

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
  };
  std::array<Shard, kShards> shards_;
};

/// A point-in-time reading of a whole registry (name-sorted vectors).
struct Snapshot {
  std::uint64_t seq = 0;       ///< snapshot sequence number (1-based)
  std::uint64_t wall_ms = 0;   ///< system clock, ms since the Unix epoch
  double uptime_s = 0.0;       ///< seconds since the snapshotter started
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  [[nodiscard]] const std::uint64_t* find_counter(std::string_view name) const;
  [[nodiscard]] const std::int64_t* find_gauge(std::string_view name) const;
  [[nodiscard]] const HistogramSnapshot* find_histogram(
      std::string_view name) const;
};

/// Named-metric registry.  Lookup-or-create takes the map mutex once;
/// returned references stay valid until `clear()` (node-based maps), so
/// probes resolve once and update lock-free afterwards.
class Registry {
 public:
  /// The process-wide registry (what `--telemetry-*` flags export).
  static Registry& global();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);

  /// Point-in-time reading of every metric (seq/wall_ms/uptime left 0 —
  /// the snapshotter stamps those).
  [[nodiscard]] Snapshot snapshot() const;

  [[nodiscard]] bool empty() const;
  /// Drop every metric.  Invalidates references handed out so far.
  void clear();

 private:
  mutable std::mutex mu_;
  // Node-based maps: metric addresses are stable across insertions.
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

// ---------------------------------------------------------------------------
// Export

/// `urn_` + name with every non-[a-zA-Z0-9_] mapped to '_', plus `suffix`.
[[nodiscard]] std::string prom_name(std::string_view name,
                                    std::string_view suffix = "");

/// Prometheus text exposition format, v0.0.4: counters as `_total`,
/// gauges verbatim, histograms as cumulative `_bucket{le="..."}` series
/// with `_sum` and `_count`.
[[nodiscard]] std::string to_prometheus(const Snapshot& snap);
/// Write the exposition atomically (tmp file + rename), so a concurrent
/// scrape never sees a torn file.  Returns false on I/O failure.
bool write_prometheus_file(const std::string& path, const Snapshot& snap);

/// One snapshot as a single flat JSON object line (`json::Layout::kLine`
/// of obs/json.hpp; `urn_top` parses the stream with `json::parse`):
/// `telemetry.seq` / `telemetry.wall_ms` / `telemetry.uptime_s`, every
/// counter and gauge under its registry name, and per histogram
/// `<name>.count/.sum/.mean/.p50/.p95/.max` plus `<name>.bucket<b>` for
/// each non-empty bucket (so downstream consumers can re-merge).
[[nodiscard]] std::string to_jsonl_line(const Snapshot& snap);
/// Append one line to the stream.  Returns false on I/O failure.
bool append_jsonl_file(const std::string& path, const Snapshot& snap);

// ---------------------------------------------------------------------------
// Snapshotter

struct SnapshotterOptions {
  /// Flat-JSON time series, truncated at start and appended per
  /// snapshot (one run = one stream; `urn_top` tails it).  Empty = no
  /// JSONL export.
  std::string jsonl_path;
  /// Prometheus text exposition, atomically rewritten per snapshot (point
  /// a file-based scrape or node_exporter textfile collector at it).
  std::string prom_path;
  /// Sampling period.
  std::uint64_t interval_ms = 1000;
  /// Optional in-process observer, called on the snapshotter thread after
  /// each export (progress meters; keep it cheap).
  std::function<void(const Snapshot&)> on_snapshot;
};

/// Background sampling thread; see the file comment.
class Snapshotter {
 public:
  Snapshotter(Registry& registry, SnapshotterOptions options);
  ~Snapshotter();  ///< calls stop()

  Snapshotter(const Snapshotter&) = delete;
  Snapshotter& operator=(const Snapshotter&) = delete;

  /// Stop sampling and emit one final snapshot (idempotent).  After
  /// stop() returns the JSONL stream's last line is the final state.
  void stop();

  /// Snapshots exported so far.
  [[nodiscard]] std::uint64_t snapshots_taken() const {
    return seq_.load(std::memory_order_relaxed);
  }

 private:
  void loop();
  void take();

  Registry& registry_;
  SnapshotterOptions options_;
  std::chrono::steady_clock::time_point start_;
  std::atomic<std::uint64_t> seq_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool stopped_ = false;
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Probes — the compile-time instrumentation seams

/// Disabled engine probe: `if constexpr (T::kEnabled)` compiles every
/// instrumentation site away, exactly like `obs::NullSink` does for
/// event emission.
struct NullEngineProbe {
  static constexpr bool kEnabled = false;
};

/// Per-slot aggregate sample (all fields are this-slot deltas except
/// `undecided`, the current live awake-but-undecided population).
struct SlotSample {
  std::uint64_t slots = 0;
  std::uint64_t active = 0;  ///< protocol callbacks run (node-slots)
  std::uint64_t wakes = 0;
  std::uint64_t decisions = 0;
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t collisions = 0;
  std::uint64_t drops = 0;
  std::uint64_t undecided = 0;  ///< current population (not a delta)
};

/// The four phases of an engine tick, in tick order, that an
/// `EngineProbe` times as `engine.layer.<phase>.ns`: wake admission, the
/// protocols' transmit decisions, collision resolution with delivery,
/// and the decision scan.  The kLayer* constants index this list.
inline constexpr std::array<const char*, 4> kEngineLayers = {
    "wake", "protocol", "medium", "decide"};
inline constexpr std::size_t kLayerWake = 0;
inline constexpr std::size_t kLayerProtocol = 1;
inline constexpr std::size_t kLayerMedium = 2;
inline constexpr std::size_t kLayerDecide = 3;

/// The registry name of layer `i`'s counter, `engine.layer.<phase>.ns`.
[[nodiscard]] inline std::string layer_counter(std::size_t i) {
  return std::string("engine.layer.") + kEngineLayers[i] + ".ns";
}

/// Enabled engine instrumentation: resolves its metrics once at
/// construction (one per run — construction cost is a few map lookups),
/// then every `on_slot` is a handful of relaxed sharded adds.
///
/// The probe also owns the engine's layer clock (`std::chrono::
/// steady_clock`): `Engine::step` calls `begin_tick` at the top of a
/// tick and `lap(layer)` at the end of each phase, five clock reads per
/// stepped tick, and each lap adds the time since the previous read to
/// the phase's `layer_counter`.  Fast-forwarded slots run no phase and
/// add no time.
///
/// Registry metric map:
///   counters `engine.slots`, `engine.node_slots`, `engine.wakes`,
///            `engine.decisions`, `engine.transmissions`,
///            `engine.deliveries`, `engine.collisions`, `engine.drops`,
///            `engine.runs`, `engine.runs_completed`,
///            `engine.layer.{wake,protocol,medium,decide}.ns`
///   gauge    `engine.undecided` (live across all concurrently running
///            engines; returns to 0 when runs drain)
///   histogram `run.decision_latency` (slots from wake to decision,
///            recorded once per node at the end of `Engine::run`)
/// On a leader-election run (`radio::Goal::kCovered`) "decided" reads
/// "covered": `engine.decisions` counts covers, `engine.undecided` the
/// uncovered nodes, and the histogram holds the cover latencies.
class EngineProbe {
 public:
  static constexpr bool kEnabled = true;

  explicit EngineProbe(Registry& reg)
      : slots_(&reg.counter("engine.slots")),
        node_slots_(&reg.counter("engine.node_slots")),
        wakes_(&reg.counter("engine.wakes")),
        decisions_(&reg.counter("engine.decisions")),
        tx_(&reg.counter("engine.transmissions")),
        deliveries_(&reg.counter("engine.deliveries")),
        collisions_(&reg.counter("engine.collisions")),
        drops_(&reg.counter("engine.drops")),
        runs_(&reg.counter("engine.runs")),
        runs_completed_(&reg.counter("engine.runs_completed")),
        undecided_(&reg.gauge("engine.undecided")),
        latency_(&reg.histogram("run.decision_latency")) {
    for (std::size_t i = 0; i < layers_.size(); ++i) {
      layers_[i] = &reg.counter(layer_counter(i));
    }
  }

  ~EngineProbe() { end_run(); }

  void begin_run() { runs_->add(1); }

  /// Start the layer clock for one tick.
  void begin_tick() { mark_ = std::chrono::steady_clock::now(); }
  /// End phase `layer` (kLayerWake … kLayerDecide) of the tick.
  void lap(std::size_t layer) {
    const auto now = std::chrono::steady_clock::now();
    layers_[layer]->add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - mark_)
            .count()));
    mark_ = now;
  }

  void on_slot(const SlotSample& s) {
    slots_->add(s.slots);
    if (s.active != 0) node_slots_->add(s.active);
    if (s.wakes != 0) wakes_->add(s.wakes);
    if (s.decisions != 0) decisions_->add(s.decisions);
    if (s.transmissions != 0) tx_->add(s.transmissions);
    if (s.deliveries != 0) deliveries_->add(s.deliveries);
    if (s.collisions != 0) collisions_->add(s.collisions);
    if (s.drops != 0) drops_->add(s.drops);
    if (s.undecided != last_undecided_) {
      undecided_->add(static_cast<std::int64_t>(s.undecided) -
                      static_cast<std::int64_t>(last_undecided_));
      last_undecided_ = s.undecided;
    }
  }

  void record_decision_latency(std::uint64_t slots) { latency_->record(slots); }

  /// Retire this run's contribution to the live gauge and count the run
  /// as finished.  Idempotent; also invoked by the destructor so a probe
  /// abandoned mid-run (exception paths) never leaks gauge residue.
  void end_run() {
    if (last_undecided_ != 0) {
      undecided_->add(-static_cast<std::int64_t>(last_undecided_));
      last_undecided_ = 0;
    }
    if (!run_counted_done_) {
      runs_completed_->add(1);
      run_counted_done_ = true;
    }
  }

 private:
  Counter* slots_;
  Counter* node_slots_;
  Counter* wakes_;
  Counter* decisions_;
  Counter* tx_;
  Counter* deliveries_;
  Counter* collisions_;
  Counter* drops_;
  Counter* runs_;
  Counter* runs_completed_;
  Gauge* undecided_;
  Histogram* latency_;
  std::array<Counter*, kEngineLayers.size()> layers_{};
  std::chrono::steady_clock::time_point mark_;  ///< layer clock's last read
  std::uint64_t last_undecided_ = 0;
  bool run_counted_done_ = false;
};

/// Trial-pool instrumentation: one `worker_drained` call per worker per
/// `TrialPool::run` (never per chunk, never per slot), so enabling it is
/// invisible at chunk granularity.
///
/// Registry metric map:
///   counters `pool.chunks`, `pool.busy.ns`, `pool.wait.ns`,
///            `pool.worker<w>.chunks`, `pool.worker<w>.busy.ns`
///   gauge    `pool.workers`
///   histogram `pool.chunk_wait.ns` (per-worker claim-path wait)
class PoolProbe {
 public:
  PoolProbe(Registry& reg, std::size_t workers);

  /// Called once per worker when it exhausts the chunk queue.
  void worker_drained(std::size_t worker, std::uint64_t busy_ns,
                      std::uint64_t wait_ns, std::uint64_t chunks);

 private:
  struct PerWorker {
    Counter* busy_ns;
    Counter* chunks;
  };
  Counter* chunks_;
  Counter* busy_ns_;
  Counter* wait_ns_;
  Gauge* workers_;
  Histogram* wait_hist_;
  std::vector<PerWorker> per_worker_;
};

}  // namespace urn::obs::telemetry

/// \file runner.hpp
/// \brief One-call execution of the coloring protocol on a graph, plus the
///        per-run verification of the paper's theorems.
///
/// `run_coloring` wires a `ColoringNode` per vertex into the radio engine,
/// runs to quiescence (every node awake and decided) or a slot cap, and
/// extracts everything the experiments need: the coloring itself, per-node
/// decision latencies T_v (Sect. 2), cluster structure, medium statistics,
/// and protocol event counters.
///
/// `run_coloring_traced` runs the same engine with what `TraceOptions`
/// asks for: one observer for every event consumer and postmortem
/// bundle, and an `obs::telemetry::EngineProbe` when a registry is given,
/// which also times the engine's phases (`engine.layer.*.ns`).

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "core/protocol.hpp"
#include "graph/coloring.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "obs/sink.hpp"
#include "radio/engine.hpp"
#include "radio/wakeup.hpp"

namespace urn::core {

/// What a traced run's observer leaves on its result.
struct TraceArtifacts {
  /// Per-window medium/protocol time series; only populated with
  /// `TraceOptions::metrics` set.
  std::optional<obs::TimeSeries> series;
  /// Events streamed to the URNB log (`events_bin`; 0 without one).
  std::uint64_t events_recorded = 0;
  /// Online invariant report; only populated with `TraceOptions::monitor`.
  std::optional<obs::MonitorReport> monitor;
};

/// Everything measured in a single protocol execution.
struct RunResult : TraceArtifacts {
  /// Final colors (graph::kUncolored for undecided nodes on timeout).
  std::vector<graph::Color> colors;
  /// Wake slot per node (copied from the schedule).
  std::vector<Slot> wake_slot;
  /// Decision slot per node (−1 if the run timed out before deciding).
  std::vector<Slot> decision_slot;
  /// T_v = decision − wake per node (only nodes that decided).
  std::vector<Slot> latency;

  radio::RunStats medium;   ///< transmissions / deliveries / collisions
  bool all_decided = false; ///< completeness within the slot budget

  graph::ColoringCheck check;  ///< correctness + completeness validation
  graph::Color max_color = graph::kUncolored;

  std::size_t num_leaders = 0;
  /// leader() per node (kInvalidNode for leaders themselves / undecided).
  std::vector<graph::NodeId> leader_of;
  /// Intra-cluster color per node (−1 for leaders / unassigned).
  std::vector<std::int32_t> intra_cluster;

  std::uint64_t total_resets = 0;
  std::uint32_t max_verify_states = 0;  ///< max #A_i states any node entered
  std::uint64_t duplicate_serves = 0;

  /// Postmortem bundle directory; non-empty when a violation bundle was
  /// captured (`PostmortemOptions::dump_on_violation` and the monitor
  /// fired).
  std::string bundle;

  /// Max T_v over decided nodes (0 if none).
  [[nodiscard]] Slot max_latency() const;
  /// Mean T_v over decided nodes (0 if none).
  [[nodiscard]] double mean_latency() const;
};

/// Postmortem checkpointing knobs for `run_coloring_traced`.  When `dir`
/// is set the run writes a self-contained bundle directory: a versioned
/// `checkpoint.urnc` (periodic when `checkpoint_every > 0`, else a single
/// snapshot at the first slot), a flight-recorder binary event ring
/// (`ring.bin`, unless `TraceOptions::events_bin` already points
/// somewhere), and a `manifest.json`.  With `dump_on_violation` the
/// invariant monitor is forced on and a violation additionally captures
/// `monitor.json` (+ `telemetry.json` when a registry is attached) and
/// reports the bundle in `RunResult::bundle`.  A fatal signal during the
/// run leaves a `CRASH.txt` next to the flushed ring.
struct PostmortemOptions {
  /// Bundle directory (created if missing).  Empty = postmortem off.
  std::string dir;
  /// Checkpoint period in slots (0 = one snapshot at the first slot).
  radio::Slot checkpoint_every = 0;
  /// Capture a full bundle and fill `RunResult::bundle` when the
  /// invariant monitor reports violations (implies
  /// `TraceOptions::monitor`).
  bool dump_on_violation = false;
  /// Trial label recorded in the manifest (bundle naming under the
  /// parallel executor uses `exec::trial_tag`).
  std::uint64_t trial = 0;

  [[nodiscard]] bool enabled() const { return !dir.empty(); }
};

/// Observability knobs for `run_coloring_traced`.  Everything defaults to
/// off, which runs the same zero-overhead `obs::NullSink` engine as
/// `run_coloring`; any event consumer or a postmortem bundle puts one
/// observer on the run that fans events out to all of them.
struct TraceOptions {
  /// Collect a per-window obs::TimeSeries into RunResult::series.
  bool metrics = false;
  /// Window width in slots for the time series (≥ 1).
  radio::Slot metrics_window = 1;
  /// When non-empty, stream every event to this URNB file (`obs::BinSink`,
  /// the one on-line log format; `urn_trace` reads it, and
  /// `urn_trace --export jsonl:PATH` converts it to JSONL).
  std::string events_bin;
  /// Ring capacity for the binary log: 0 = keep everything; N > 0 = keep
  /// only the last N events in O(N) memory ("flight recorder" mode; the
  /// header records how many were dropped).
  std::size_t bin_ring = 0;
  /// Check the paper's invariants online (`make_monitor_config` builds
  /// the configuration) and fill `RunResult::monitor`.
  bool monitor = false;
  /// Optional live telemetry: run the engine with an
  /// `obs::telemetry::EngineProbe` feeding this registry (slot/medium
  /// counters, the `engine.layer.*.ns` phase times, the live
  /// `engine.undecided` gauge, and the `run.decision_latency`
  /// histogram).  Telemetry alone does NOT turn on event emission: with
  /// every other knob off the run executes on the NullSink engine
  /// instantiation plus the probe, so a monitored sweep runs the
  /// untraced loop.  Not owned; must outlive the
  /// run.
  obs::telemetry::Registry* telemetry = nullptr;
  /// Optional in-memory event capture: every event is also recorded
  /// into this sink (unbounded; intended for in-process analysis such
  /// as `obs::explain_trace` — no file round-trip).  Not owned; must
  /// outlive the run.
  obs::MemorySink* memory = nullptr;
  /// Periodic checkpointing + violation bundle capture (see
  /// `PostmortemOptions`).  Only honored by `run_coloring_traced`; the
  /// leader-election entry points ignore it.
  PostmortemOptions postmortem;
};

/// Build the full `obs::MonitorConfig` for a run on `g`: κ₂ and the
/// Theorem 3 per-node latency budget from `params`/`schedule`, θ_v per
/// node, and the CSR adjacency for the conflict / leader-independence
/// checks.  O(n·Δ²) for the θ computation — intended for monitored
/// (opt-in) runs, not the hot path.
[[nodiscard]] obs::MonitorConfig make_monitor_config(
    const graph::Graph& g, const Params& params,
    const radio::WakeSchedule& schedule);

/// Execute the protocol.
///
/// \param g          the network graph
/// \param params     protocol parameters (validated)
/// \param schedule   wake slot per node; size must equal g.num_nodes()
/// \param seed       master seed; every node derives its own stream
/// \param max_slots  hard cap (0 = a generous default derived from params)
/// \param medium     failure-injection knobs (default: ideal medium)
[[nodiscard]] RunResult run_coloring(const graph::Graph& g,
                                     const Params& params,
                                     const radio::WakeSchedule& schedule,
                                     std::uint64_t seed, Slot max_slots = 0,
                                     radio::MediumOptions medium = {});

/// `run_coloring` with observability: identical protocol execution (same
/// seeds, same RNG streams, bit-identical coloring), with the observer,
/// probe and postmortem bundle requested by `trace`.  With
/// `TraceOptions{}` it is exactly `run_coloring`, so callers pass their
/// options unconditionally instead of choosing an entry point.
[[nodiscard]] RunResult run_coloring_traced(
    const graph::Graph& g, const Params& params,
    const radio::WakeSchedule& schedule, std::uint64_t seed,
    const TraceOptions& trace, Slot max_slots = 0,
    radio::MediumOptions medium = {});

/// A conservative default slot budget: enough for the theory bound
/// O(κ₂⁴ Δ log n) after the last wake-up, with headroom.
[[nodiscard]] Slot default_slot_budget(const Params& params,
                                       const radio::WakeSchedule& schedule);

/// Theorem 4 verification.  The theorem's statement writes the bound as
/// φ_v ≤ κ₂·θ_v; the bound its own derivation yields (via Corollary 1:
/// color ≤ tc(κ₂+1)+κ₂ with tc ≤ θ_v) is φ_v ≤ (κ₂+1)·θ_v + κ₂, i.e. the
/// same O(κ₂·θ_v) with explicit constants.  `holds` checks the derivable
/// bound; `max_ratio` reports max φ_v/θ_v so experiments can show the
/// ratio is O(κ₂) and usually far smaller.
struct LocalityReport {
  bool holds = true;       ///< φ_v ≤ (κ₂+1)·θ_v + κ₂ everywhere
  double max_ratio = 0.0;  ///< max over v of φ_v / θ_v
  graph::NodeId worst = graph::kInvalidNode;
};

[[nodiscard]] LocalityReport check_locality(
    const graph::Graph& g, const std::vector<graph::Color>& colors,
    std::uint32_t kappa2);

/// Result of running only the first stage of the protocol: leader election
/// plus cluster association — an MIS-and-clustering-from-scratch primitive
/// (the paper's C₀ layer; cf. the clustering lineage of [14] and the MIS
/// algorithm of [21] in its related work).
struct LeaderElectionResult : TraceArtifacts {
  /// Sorted node ids that entered C₀.
  std::vector<graph::NodeId> leaders;
  /// leader() per node (kInvalidNode for leaders / uncovered nodes).
  std::vector<graph::NodeId> leader_of;
  /// Slots from each node's wake-up until it was *covered* (became a
  /// leader or learned its leader).
  std::vector<Slot> cover_latency;
  bool all_covered = false;
  radio::RunStats medium;
};

/// Run the protocol only until every node is a leader or knows one
/// (i.e. left A₀), then stop.  The leader set is, with high probability,
/// a maximal independent set of g.  Runs on the same engine path as
/// `run_coloring`, so failure injection (`medium`) and — via the traced
/// variant — the run's observer apply to leader-election runs too.
[[nodiscard]] LeaderElectionResult run_leader_election(
    const graph::Graph& g, const Params& params,
    const radio::WakeSchedule& schedule, std::uint64_t seed,
    Slot max_slots = 0, radio::MediumOptions medium = {});

/// `run_leader_election` with observability: identical execution (same
/// seeds and RNG streams), plus the metrics / log / monitor / telemetry
/// requested by `trace` (postmortem options are ignored).
[[nodiscard]] LeaderElectionResult run_leader_election_traced(
    const graph::Graph& g, const Params& params,
    const radio::WakeSchedule& schedule, std::uint64_t seed,
    const TraceOptions& trace, Slot max_slots = 0,
    radio::MediumOptions medium = {});

}  // namespace urn::core

/// \file explain.hpp
/// \brief Causal latency attribution: decompose every node's
///        time-to-decision into an exhaustive cause taxonomy, and diff
///        two runs' attributions with bootstrap confidence intervals.
///
/// The paper's headline results are *latency* bounds (Thm 3's
/// O(Δ log n) time-to-decision), and the trace layer records every
/// event that produces that latency.  `explain_trace` replays a
/// complete event trace (JSONL or URNB, via `read_trace_file`) and
/// classifies each pre-decision slot of each node into exactly one
/// `Cause`, with **exact slot accounting**: for every decided node the
/// non-asleep causes sum to the recorded decision latency — a checked
/// invariant (`NodeAttribution::exact`, `ExplainReport::exact_ok`).
///
/// The per-slot classifier is a pure function of the trace, so serial
/// and parallel aggregations are bit-identical (PR 3 merge algebra):
///
///  * slots before the wake event                       → kAsleep
///    (bookkeeping only — excluded from the latency-sum invariant);
///  * a collision heard at the node                     → kCollision;
///  * a message to the node lost to injected fading     → kDrop;
///  * a counter reset (Alg. 1 l. 29) or own transmission→ kContention
///    (the node is actively competing / was set back by a competitor);
///  * otherwise, a slot inside a protocol-mandated wait → kPhaseWait
///    (the passive prefix of an A_i phase, or any R-phase slot spent
///    waiting for the leader);
///  * any remaining slot                                → kIdle
///    (the randomized backoff chose "listen" and nothing happened).
///
/// Slot disjointness is guaranteed by the engine semantics: in one slot
/// a node experiences at most one of {collision, drop, transmit}
/// (senders don't listen; a unique transmission is either dropped or
/// delivered).  Resets co-occur with deliveries and take precedence
/// over the interval default.
///
/// Attribution requires a *complete* trace (wake/phase/decision events
/// present — i.e. not a ring-buffer suffix); nodes with no wake event
/// are reported with empty windows.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/event.hpp"
#include "obs/json.hpp"

namespace urn::obs {

/// Why a node spent a slot not yet decided.  Order is the on-disk /
/// JSON-key order; append only.
enum class Cause : std::uint8_t {
  kAsleep = 0,     ///< slot before the node's wake event
  kPhaseWait = 1,  ///< protocol-mandated wait (A_i passive prefix, R phase)
  kCollision = 2,  ///< ≥2 neighbors transmitted; node heard silence
  kDrop = 3,       ///< delivery to the node lost to injected fading
  kContention = 4, ///< own transmission, or a competitor-forced reset
  kIdle = 5,       ///< active slot where backoff chose listen, heard nothing
};

inline constexpr std::size_t kNumCauses = 6;

/// Stable schema name ("asleep", "phase_wait", "collision", "drop",
/// "contention", "idle").
[[nodiscard]] const char* cause_name(Cause c);

/// Which Fig. 2 region a slot belongs to, for per-phase profiles.
enum class PhaseBucket : std::uint8_t {
  kA0 = 0,  ///< first verification phase A₀
  kAi = 1,  ///< later verification phases A_i, i > 0
  kR = 2,   ///< request phase (waiting on a leader)
};

inline constexpr std::size_t kNumPhaseBuckets = 3;

/// Stable schema name ("a0", "ai", "r").
[[nodiscard]] const char* phase_bucket_name(PhaseBucket b);

/// Per-kind event counts and slot range for a trace — the shared
/// indexer behind `urn_trace --stats` and `urn_explain summarize`.
struct TraceStats {
  std::size_t events = 0;
  std::size_t by_kind[kNumEventKinds] = {};
  Slot first_slot = 0;  ///< 0 when the trace is empty
  Slot last_slot = 0;   ///< 0 when the trace is empty
  std::size_t nodes = 0;  ///< distinct node ids (kNoNode excluded)

  /// One-line human summary, e.g.
  /// "events=42 nodes=4 slots=[0,17] wake=4 tx=10 rx=8 ...".
  [[nodiscard]] std::string one_line() const;
};

[[nodiscard]] TraceStats compute_trace_stats(const std::vector<Event>& events);

/// Run parameters the trace alone cannot reveal.
struct ExplainConfig {
  /// The run's κ₂ (forwarded to `Fig2Walker`; 0 = unknown, lattice
  /// check skipped).
  std::uint32_t kappa2 = 0;
  /// Passive-listen prefix of each A_i phase, `Params::passive_slots()`.
  /// 0 = unknown: no slot is classified kPhaseWait inside A_i (the
  /// exactness invariant holds regardless; those slots fall to kIdle).
  std::int64_t passive_slots = 0;
  /// Also record contiguous per-node cause spans (for the chrome
  /// icicle export).  Off by default: summaries don't need them.
  bool collect_spans = false;
};

/// One contiguous run of same-cause slots at one node: [begin, end).
struct CauseSpan {
  Slot begin = 0;
  Slot end = 0;
  Cause cause = Cause::kIdle;

  friend bool operator==(const CauseSpan&, const CauseSpan&) = default;
};

/// Attribution profile of a single node over its pre-decision window.
struct NodeAttribution {
  NodeId node = kNoNode;
  Slot wake_slot = -1;      ///< -1 = no wake event seen
  Slot decision_slot = -1;  ///< -1 = undecided at end of trace
  std::int32_t final_color = -1;
  std::uint32_t resets = 0;  ///< kReset events inside the window
  bool decided = false;

  /// Slots per cause over [wake, decision) — or [wake, trace-end+1)
  /// for undecided nodes.  `causes[kAsleep]` counts [0, wake) and is
  /// excluded from the latency-sum invariant.
  std::int64_t causes[kNumCauses] = {};
  /// The same slots cross-tabulated by Fig. 2 region (asleep excluded).
  std::int64_t by_phase[kNumPhaseBuckets][kNumCauses] = {};
  /// Row sums of `by_phase`: total window slots spent in each region.
  std::int64_t phase_slots[kNumPhaseBuckets] = {};

  /// Sum of all non-asleep causes (== latency for decided, exact nodes).
  [[nodiscard]] std::int64_t stall() const {
    std::int64_t total = 0;
    for (std::size_t c = 1; c < kNumCauses; ++c) total += causes[c];
    return total;
  }
  /// Recorded decision latency (decision − wake); -1 if undecided.
  [[nodiscard]] std::int64_t latency() const {
    return decided ? decision_slot - wake_slot : -1;
  }
  /// The checked invariant: causes sum to the decision latency.
  [[nodiscard]] bool exact() const {
    return decided && stall() == latency();
  }
};

/// Whole-trace attribution: per-node profiles plus network-wide and
/// per-phase roll-ups.
struct ExplainReport {
  ExplainConfig config;
  TraceStats stats;

  /// One entry per node seen in the trace, ascending node id.
  std::vector<NodeAttribution> nodes;
  /// Parallel to `nodes` when `config.collect_spans`; empty otherwise.
  std::vector<std::vector<CauseSpan>> spans;

  std::size_t decided_nodes = 0;
  std::size_t exact_nodes = 0;  ///< decided nodes passing `exact()`
  std::size_t fig2_violations = 0;

  /// Network-wide slot totals per cause (all nodes' windows).
  std::int64_t totals[kNumCauses] = {};
  /// Cause totals cross-tabulated by Fig. 2 region.
  std::int64_t phase_totals[kNumPhaseBuckets][kNumCauses] = {};

  /// True iff every decided node's causes sum to its recorded latency.
  [[nodiscard]] bool exact_ok() const {
    return exact_nodes == decided_nodes;
  }
  /// Total non-asleep slots attributed across all nodes.
  [[nodiscard]] std::int64_t total_stall() const {
    std::int64_t total = 0;
    for (std::size_t c = 1; c < kNumCauses; ++c) total += totals[c];
    return total;
  }
  /// `totals[c]` as a share of `total_stall()` (0 when empty; asleep
  /// has no share).
  [[nodiscard]] double share(Cause c) const;
  /// The non-asleep cause with the largest total (ties → lower code).
  [[nodiscard]] Cause top_cause() const;
};

/// Classify every pre-decision slot of every node in `events`.
/// `events` must be in emission order (nondecreasing slot), as written
/// by every sink in this repo.
[[nodiscard]] ExplainReport explain_trace(const std::vector<Event>& events,
                                          const ExplainConfig& config = {});

// --- differential mode -------------------------------------------------

struct ExplainDiffOptions {
  /// Bootstrap resampling rounds for the per-cause CIs.
  std::size_t resamples = 1000;
  /// Seed for the deterministic resampling stream.
  std::uint64_t seed = 0x5EEDEDULL;
  /// Two-sided confidence level of the reported interval.
  double confidence = 0.95;
};

/// Per-cause comparison of two runs (decided nodes only).
struct CauseDelta {
  Cause cause = Cause::kIdle;
  std::int64_t slots_a = 0;  ///< total slots attributed in run A
  std::int64_t slots_b = 0;
  double share_a = 0.0;  ///< share of run A's total stall
  double share_b = 0.0;
  double mean_a = 0.0;  ///< mean slots per decided node, run A
  double mean_b = 0.0;
  double delta_mean = 0.0;  ///< mean_b − mean_a
  /// Bootstrap percentile CI on `delta_mean` (nodes resampled with
  /// replacement, independently per run).
  double ci_lo = 0.0;
  double ci_hi = 0.0;
  /// True when the CI excludes zero — the delta is attributable.
  bool significant = false;
};

/// Statistical comparison of two attribution reports.
struct ExplainDiff {
  std::size_t nodes_a = 0;  ///< decided nodes in run A
  std::size_t nodes_b = 0;
  double mean_latency_a = 0.0;  ///< mean decision latency per node
  double mean_latency_b = 0.0;
  /// mean_latency_a / mean_latency_b (>1 = B faster); 0 if degenerate.
  double speedup = 0.0;
  /// One row per cause, `kAsleep` included (wake-offset drift).
  CauseDelta causes[kNumCauses];
};

/// Compare two runs of the same scenario.  Deterministic: the same
/// (a, b, options) always produces bit-identical CIs.
[[nodiscard]] ExplainDiff diff_explain(const ExplainReport& a,
                                       const ExplainReport& b,
                                       const ExplainDiffOptions& options = {});

// --- exports ------------------------------------------------------------

/// The report as one flat document: per-cause slot totals and shares,
/// top cause, exactness counters, and per-phase p50/p95 stall slots over
/// nodes, numbers in a round-trip form (integers as integers, the rest
/// with 17 significant digits).  `urn_explain --json` renders it as a
/// block and `bench::explain_emit` copies it into `explain.*` keys.
[[nodiscard]] json::Doc explain_doc(const ExplainReport& report);

/// The diff (per-cause deltas + CIs) as one flat document, same number
/// form.
[[nodiscard]] json::Doc explain_diff_doc(const ExplainDiff& diff);

/// Write a chrome://tracing "icicle" of per-node cause spans through
/// `ChromeTraceWriter` (one tid per node, one X slice per span;
/// 1 slot = 1 µs).  Requires a report
/// built with `collect_spans`.  Returns false on I/O failure or when
/// spans were not collected.
[[nodiscard]] bool write_explain_chrome_file(const std::string& path,
                                             const ExplainReport& report);

}  // namespace urn::obs

/// \file trace.hpp
/// \brief Trace analyzer: replay a recorded event log, reconstruct
///        per-node timelines, and validate Fig. 2 transition legality.
///
/// The paper's protocol guarantees are statements about each node's
/// *trajectory* through the state diagram (Fig. 2):
///
///     Z → A₀;   A₀ → C₀ | R;   R → A_{tc(κ₂+1)};
///     A_i → C_i | A_{i+1}  (i > 0);   C_i terminal.
///
/// `validate_fig2` checks exactly that walk on every node of a recorded
/// event stream, plus monotone slots and wake-before-anything ordering;
/// `build_timelines` condenses the stream into one record per node.
/// Both operate on `std::vector<Event>` — in-memory (MemorySink) or
/// read back from a log file (`read_trace_file` in bintrace.hpp, URNB or
/// JSONL), which is what the `urn_trace` CLI drives.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/event.hpp"

namespace urn::obs {

/// Write `events` as a JSONL log (one `append_jsonl` line each, in order),
/// truncating `path`.  This is the only JSONL writer: on-line capture is
/// URNB (`BinSink`), whose records are field-for-field images of `Event`,
/// so exporting a read-back `.bin` (`urn_trace --export jsonl:PATH`)
/// yields the bytes a JSONL capture of the same run would have.  Returns
/// false on I/O failure.
[[nodiscard]] bool write_jsonl_file(const std::string& path,
                                    const std::vector<Event>& events);

/// One node's condensed history.
struct NodeTimeline {
  NodeId node = kNoNode;
  Slot wake_slot = -1;      ///< −1 if no wake event was recorded
  Slot decision_slot = -1;  ///< −1 if the node never decided
  std::int32_t final_color = -1;
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries = 0;   ///< receptions at this node
  std::uint64_t collisions = 0;   ///< collision slots at this node
  std::uint64_t resets = 0;
  /// Fig. 2 transitions in order (phase events only).
  std::vector<Event> phases;

  [[nodiscard]] bool decided() const { return decision_slot >= 0; }
  /// T_v = decision − wake (−1 if either endpoint is missing).
  [[nodiscard]] Slot latency() const {
    return (wake_slot >= 0 && decision_slot >= 0)
               ? decision_slot - wake_slot
               : -1;
  }
};

/// One timeline per node id appearing in the log, sorted by node id.
[[nodiscard]] std::vector<NodeTimeline> build_timelines(
    const std::vector<Event>& events);

/// One detected illegality.
struct Fig2Violation {
  NodeId node = kNoNode;
  Slot slot = 0;
  std::string what;
};

/// Outcome of the Fig. 2 legality check.
struct Fig2Report {
  std::size_t nodes_checked = 0;
  std::size_t transitions_checked = 0;
  std::vector<Fig2Violation> violations;

  [[nodiscard]] bool ok() const { return violations.empty(); }
};

/// Validate every node's phase-event walk against Fig. 2.
///
/// Checks, per node: the first transition is into A₀; slots are
/// nondecreasing and never precede the wake event; A₀ exits only to C₀
/// or R; R exits only to A_j with j > 0 (and j ≡ 0 (mod κ₂+1) when
/// `kappa2` > 0 — pass 0 if the run's κ₂ is unknown); A_i (i > 0) exits
/// only to C_i or A_{i+1}; no transition leaves any C_i; and a recorded
/// decision event agrees with the final C_i transition.
[[nodiscard]] Fig2Report validate_fig2(const std::vector<Event>& events,
                                       std::uint32_t kappa2 = 0);

}  // namespace urn::obs

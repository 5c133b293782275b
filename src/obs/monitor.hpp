/// \file monitor.hpp
/// \brief Online invariant monitor: an `EventSink` that checks the
///        paper's guarantees *while the run happens* instead of after it.
///
/// The paper's theorems are all per-node checkable predicates, and the
/// event stream carries enough context to evaluate them the moment each
/// node decides:
///
///  * **phase legality** — every node's walk obeys the Fig. 2 transition
///    table (shared with the offline validator via `Fig2Walker`);
///  * **color conflict** — Theorem 5 correctness: at decision time, no
///    already-decided neighbor holds the same color;
///  * **leader independence** — the C₀ set stays independent: no two
///    adjacent nodes both decide color 0;
///  * **locality** — Theorem 4: the decided color stays within the
///    derivable bound (κ₂+1)·θ_v + κ₂ of the local density θ_v;
///  * **latency** — Theorem 3: T_v = decision − wake stays within the
///    configured O(κ₂⁴ Δ log n) slot budget.
///
/// A traced run's observer (core/runner.cpp) fans each event out to the
/// monitor next to the metrics series and the URNB log; the monitor
/// never touches RNG streams, so monitored runs stay bit-identical to
/// unmonitored ones.
/// Graph-dependent checks (conflict / leader independence / locality)
/// activate only when the `MonitorConfig` carries adjacency / θ data;
/// with an empty config the monitor still checks phase legality, which is
/// what `urn_trace` uses to re-check recorded logs offline.

#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "obs/event.hpp"
#include "obs/fig2.hpp"
#include "obs/sink.hpp"

namespace urn::obs {

/// Everything the monitor needs to know about the run under observation.
/// Empty members disable the corresponding checks (see file comment).
struct MonitorConfig {
  /// κ₂ of the run; enables the R-exit lattice check and (with `theta`)
  /// the Theorem 4 locality bound.  0 = unknown.
  std::uint32_t kappa2 = 0;
  /// Per-node decision budget in slots (Theorem 3); 0 disables the
  /// latency check.
  Slot latency_budget = 0;
  /// θ_v per node (Theorem 4 local density); empty disables locality.
  std::vector<std::uint32_t> theta;
  /// CSR adjacency (offsets.size() == n + 1); empty disables the
  /// conflict and leader-independence checks.
  std::vector<std::uint32_t> adj_offsets;
  std::vector<NodeId> adj;
};

/// The invariants the monitor distinguishes.
enum class Invariant : std::uint8_t {
  kPhaseLegality = 0,      ///< Fig. 2 transition-table violation
  kColorConflict = 1,      ///< decided color equals a decided neighbor's
  kLeaderIndependence = 2, ///< two adjacent nodes both decided color 0
  kLocality = 3,           ///< color exceeds (κ₂+1)·θ_v + κ₂ (Thm 4)
  kLatency = 4,            ///< T_v exceeds the slot budget (Thm 3)
};

inline constexpr std::size_t kNumInvariants = 5;

/// Stable schema name ("phase", "color-conflict", "leader-independence",
/// "locality", "latency").
[[nodiscard]] const char* invariant_name(Invariant inv);

/// Per-invariant violation tally plus the first offending (slot, node).
struct MonitorReport {
  struct PerInvariant {
    std::uint64_t count = 0;
    Slot first_slot = -1;
    NodeId first_node = kNoNode;
    std::string first_what;
  };
  std::array<PerInvariant, kNumInvariants> invariants;
  std::uint64_t events_seen = 0;
  std::size_t nodes_seen = 0;

  [[nodiscard]] const PerInvariant& of(Invariant inv) const {
    return invariants[static_cast<std::size_t>(inv)];
  }
  [[nodiscard]] std::uint64_t total_violations() const {
    std::uint64_t sum = 0;
    for (const PerInvariant& p : invariants) sum += p.count;
    return sum;
  }
  [[nodiscard]] bool ok() const { return total_violations() == 0; }
};

/// Print the standard human-readable report block (used by urn_sim,
/// urn_trace and the experiment binaries so the output stays uniform).
void print_monitor_report(const MonitorReport& report, std::FILE* out);

/// Earliest recorded violation across all invariants (lowest first_slot;
/// invariant order breaks ties).  Returns nullptr when the report is
/// clean; `which` (optional) receives the winning invariant.
[[nodiscard]] const MonitorReport::PerInvariant* first_violation(
    const MonitorReport& report, Invariant* which = nullptr);

/// One-line, grep-friendly first-violation summary for exit-2 paths:
///   `first violation: invariant=<name> slot=<s> node=<v>`
/// No-op on a clean report.
void print_first_violation(const MonitorReport& report, std::FILE* out);

/// The online monitor.  Feed it a run's event stream (directly as an
/// engine sink or by replaying a recorded log) and read `report()`.
class InvariantMonitorSink {
 public:
  static constexpr bool kEnabled = true;

  explicit InvariantMonitorSink(MonitorConfig config)
      : config_(std::move(config)) {}

  void record(const Event& e);
  void flush() {}

  /// Snapshot of the tally so far (cheap; safe to call mid-run).
  [[nodiscard]] MonitorReport report() const;

 private:
  struct NodeState {
    explicit NodeState(std::uint32_t kappa2) : walker(kappa2) {}
    Fig2Walker walker;
    bool decided = false;
    std::int32_t color = -1;
  };

  NodeState& state(NodeId v);
  void violation(Invariant inv, Slot slot, NodeId node, std::string what);
  void on_decided(NodeId v, Slot slot, std::int32_t color);

  MonitorConfig config_;
  std::map<NodeId, NodeState> nodes_;
  MonitorReport report_;
};

static_assert(EventSink<InvariantMonitorSink>);

}  // namespace urn::obs
